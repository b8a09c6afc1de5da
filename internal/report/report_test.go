package report_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/ccache"
	"s2fa/internal/core"
	"s2fa/internal/fpga"
	"s2fa/internal/jvmsim"
	"s2fa/internal/obs"
	"s2fa/internal/report"
	"s2fa/internal/spark"
)

var update = flag.Bool("update", false, "rewrite the golden report in testdata/")

// traceSW runs the full S-W pipeline at seed 42 under an injected
// deterministic clock (1µs per reading), so every NS timestamp — and
// therefore every rendered duration and percentile — is a pure function
// of the code path, not of the machine. The blaze MapAcc batch at the
// end puts the offload story in the trace too.
func traceSW(t *testing.T) []obs.Event {
	t.Helper()
	var ns int64
	clock := func() int64 { ns += 1000; return ns }
	var jsonl bytes.Buffer
	tr := obs.New(obs.NewJSONL(&jsonl), obs.WithClock(clock))

	a := apps.Get("S-W")
	fw := core.New()
	fw.Seed = 42
	fw.Tasks = a.Tasks
	fw.Trace = tr
	b, err := fw.BuildFromSource(a.Source)
	if err != nil {
		t.Fatal(err)
	}
	mgr := blaze.NewManager(fpga.VU9P())
	mgr.Trace = tr
	if err := fw.Deploy(b, mgr); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	rdd := spark.Parallelize(spark.NewContext(), a.Gen(rng, 4), 1)
	if _, _, err := blaze.Wrap(rdd, mgr).MapAcc(jvmsim.New(b.Class)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	// Decode the JSONL exactly as s2fa-report does, so the golden test
	// also covers the integer-to-float64 decode path.
	events, err := obs.ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// TestReportGolden locks the full markdown explanation of the S-W
// seed-42 run: under the injected clock the report is byte-stable, so
// any drift in event wiring, aggregation, ordering, or formatting shows
// up as a golden diff. Refresh intentionally with:
//
//	go test ./internal/report -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	got := report.Render(traceSW(t), report.Options{Markdown: true})

	golden := filepath.Join("testdata", "sw_seed42.md")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record the golden report)", err)
	}
	if got != string(want) {
		t.Errorf("report drifted from golden %s (re-record with -update if intentional)\n%s",
			golden, firstDiff(string(want), got))
	}
}

// TestReportRendersBothFormats sanity-checks the text renderer against
// the same trace: same sections, no markdown pipes in the aligned form.
func TestReportRendersBothFormats(t *testing.T) {
	txt := report.Render(traceSW(t), report.Options{Markdown: false})
	for _, section := range []string{
		"Overview", "Stage waterfall", "Slowest fresh HLS estimations",
		"Prune attribution", "Worker utilization", "Blaze offload vs fallback",
	} {
		if !strings.Contains(txt, section) {
			t.Errorf("text report missing section %q", section)
		}
	}
}

// TestReportCompileCache attaches a compile cache to the framework,
// compiles the same source twice (miss then hit), and checks the report
// grows a "Compile cache" section with the counters.
func TestReportCompileCache(t *testing.T) {
	var ns int64
	clock := func() int64 { ns += 1000; return ns }
	var jsonl bytes.Buffer
	tr := obs.New(obs.NewJSONL(&jsonl), obs.WithClock(clock))

	a := apps.Get("S-W")
	fw := core.New()
	fw.Trace = tr
	fw.Cache = ccache.New()
	for i := 0; i < 2; i++ {
		if _, _, err := fw.Compile(a.Source); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := report.Render(events, report.Options{Markdown: true})
	for _, want := range []string{"## Compile cache", "ccache.hits", "Hit rate: 50.0% over 2 compilations."} {
		if !strings.Contains(got, want) {
			t.Errorf("report with cached compiles missing %q", want)
		}
	}
}

// TestReportRuntimeSection emits one Go runtime sample into a JSONL
// trace through obs.SampleRuntime and checks the report renders the
// "Go runtime (final sample)" section from the trace alone, with the
// go.* gauges kept out of the counter table. A nil trace makes the
// sampler a no-op.
func TestReportRuntimeSection(t *testing.T) {
	var jsonl bytes.Buffer
	tr := obs.New(obs.NewJSONL(&jsonl))
	tr.Count("dse.evals", 3)
	obs.SampleRuntime(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := report.Render(events, report.Options{Markdown: true})
	section := strings.Index(got, "## Go runtime (final sample)")
	if section < 0 {
		t.Fatalf("report missing the Go runtime section:\n%s", got)
	}
	for _, g := range []string{"go.goroutines", "go.heap_objects_bytes", "go.total_bytes",
		"go.allocs_bytes_total", "go.gc_cycles_total", "go.gc_pause_p50_seconds", "go.gc_pause_p99_seconds"} {
		row := "| " + g + " "
		if strings.Count(got, row) != 1 || strings.Index(got, row) < section {
			t.Errorf("gauge %s not listed once, in the Go runtime section:\n%s", g, got)
		}
	}
	if !strings.Contains(got, "| dse.evals | 3 ") {
		t.Errorf("counter table lost dse.evals:\n%s", got)
	}

	var nilTr *obs.Trace
	obs.SampleRuntime(nilTr)
	before := runtime.NumGoroutine()
	stop := obs.StartRuntimeSampler(nilTr, time.Millisecond)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("nil-trace sampler started a goroutine (%d -> %d)", before, n)
	}
	stop()
}

// TestReportDeterministic renders the same run twice and demands byte
// equality — the report must not depend on map iteration order.
func TestReportDeterministic(t *testing.T) {
	events := traceSW(t)
	a := report.Render(events, report.Options{Markdown: true})
	b := report.Render(events, report.Options{Markdown: true})
	if a != b {
		t.Error("report is not deterministic across renders of the same run")
	}
}

// firstDiff points at the first divergent line so a golden failure is
// readable without an external diff tool.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  got:    %s", i+1, w, g)
		}
	}
	return "contents differ only in length"
}
