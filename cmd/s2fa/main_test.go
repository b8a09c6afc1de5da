package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/hls"
	"s2fa/internal/obs"
)

// TestUnknownAppMessage pins the -app rejection text: every valid
// workload name, in Table 2 order, so a typo is a one-screen fix.
func TestUnknownAppMessage(t *testing.T) {
	const want = `unknown app "Foo" (valid workloads: PR, KMeans, KNN, LR, SVM, LLS, AES, S-W, Conv, Hist, TopK, StrSearch)`
	if got := unknownAppMessage("Foo"); got != want {
		t.Errorf("unknownAppMessage(\"Foo\"):\n got %s\nwant %s", got, want)
	}
}

// TestBatchSize pins how -tasks resolves: an explicit batch always
// wins, including 4096 for a built-in app whose own batch differs;
// 0 (the default) means the app's own batch, or 4096 for -src.
func TestBatchSize(t *testing.T) {
	sw := apps.Get("S-W")
	if sw.Tasks == 4096 {
		t.Fatal("S-W's own batch is 4096; the table below needs an app whose batch differs")
	}
	for _, tc := range []struct {
		name  string
		tasks int
		app   *apps.App
		want  int
	}{
		{"app default", 0, sw, sw.Tasks},
		{"app explicit 4096", 4096, sw, 4096},
		{"app explicit other", 512, sw, 512},
		{"src default", 0, nil, 4096},
		{"src explicit", 100, nil, 100},
	} {
		if got := batchSize(tc.tasks, tc.app); got != tc.want {
			t.Errorf("%s: batchSize(%d) = %d, want %d", tc.name, tc.tasks, got, tc.want)
		}
	}
}

// TestAccessReportSW checks the -explain memory section on the
// Smith-Waterman workload: the access table classifies the cell loop's
// H traversal as burst with the 32-lane port cap attached, names the
// strided row hop on the outer loop, and the guidance explains the
// traceback gathers and the BRAM port ceiling.
func TestAccessReportSW(t *testing.T) {
	out := accessReport(swAnalysis(t).Access(), "S-W.kdsl")
	for _, want := range []string{
		"memory access patterns",
		"L2 [port-cap 32 lanes]",
		"H          local  class=burst     stride=1",
		"class=strided   stride=129",
		"(site positions are S-W.kdsl:line:col)",
		"why is this kernel memory-bound?",
		"indirect subscripts still serialize",
		"loop L2: on-chip bank ports cap useful parallel lanes at 32",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("accessReport missing %q in:\n%s", want, out)
		}
	}
}

// TestDependReportSW checks the -explain dependence section on the
// Smith-Waterman workload: the verdict table names the H recurrence with
// a sourced witness pair, and the guidance explains why parallel lanes
// on the cell loops need the wavefront pipeline.
func TestDependReportSW(t *testing.T) {
	out := dependReport(swAnalysis(t).Depend(), "S-W.kdsl")
	for _, want := range []string{
		"loop dependence verdicts",
		"witness:",
		"(witness positions are S-W.kdsl:line:col)",
		"directive guidance",
		"parallel 16 on L2: lanes contend on H",
		"lanes serialize, no speedup unless wavefront",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dependReport missing %q in:\n%s", want, out)
		}
	}
}

// swAnalysis compiles the Smith-Waterman workload and analyzes it, as
// -explain does.
func swAnalysis(t *testing.T) *hls.Analysis {
	t.Helper()
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return hls.Analyze(k)
}

// TestEarlyExitsWriteTrace runs the paths that stop before the DSE —
// -explain and -lint, including -lint on a kernel with §3.3 violations,
// which exits 1 — with a JSONL trace: each must still flush its trace,
// so the file holds at least the kdsl/compile span.
func TestEarlyExitsWriteTrace(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.scala")
	if err := os.WriteFile(bad, []byte(dynAllocSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"explain", []string{"-app", "S-W", "-explain"}, 0},
		{"lint", []string{"-app", "S-W", "-lint"}, 0},
		{"lint violations", []string{"-src", bad, "-lint"}, 1},
		{"explain violations", []string{"-src", bad, "-explain"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(tc.name, " ", "_")+".jsonl")
			if code := run(append(tc.args, "-trace", path)); code != tc.code {
				t.Fatalf("exit status %d, want %d", code, tc.code)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := obs.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range events {
				if e.Cat == "kdsl" && e.Name == "compile" {
					return
				}
			}
			t.Fatalf("trace holds %d events, no kdsl/compile span", len(events))
		})
	}
}

// dynAllocSrc sizes a local array by its input, a §3.3 violation
// (dynamic allocation) that -lint and -explain report and exit 1 on.
const dynAllocSrc = `class Dyn extends Accelerator[Int, Int] {
  val id: String = "dyn"
  def call(in: Int): Int = {
    val a: Array[Int] = new Array[Int](in)
    a(0) = in
    a(0)
  }
}`
