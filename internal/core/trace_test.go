package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/jvmsim"
	"s2fa/internal/obs"
	"s2fa/internal/spark"
)

// buildSW runs the full S-W pipeline at seed 42, optionally traced and
// optionally on the parallel DSE engine, then deploys the accelerator
// and executes a small MapAcc batch so the blaze runtime stage appears
// in the trace too.
func buildSW(t *testing.T, tr *obs.Trace, parallel bool) *Build {
	t.Helper()
	a := apps.Get("S-W")
	fw := New()
	fw.Seed = 42
	fw.Tasks = a.Tasks
	fw.Trace = tr
	if parallel {
		cfg := dse.S2FAConfig(fw.Seed)
		cfg.Engine = dse.EngineParallel
		cfg.Parallelism = 4
		fw.DSE = &cfg
	}

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
	_, stats, err := blaze.Wrap(rdd, mgr).MapAcc(jvmsim.New(b.Class))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedFPGA {
		t.Fatalf("offload fell back: %s", stats.Fallback)
	}
	return b
}

// TestTracingDeterminism is the observability layer's non-negotiable
// invariant: a traced S-W run at seed 42 must follow a byte-identical
// search trajectory and land on the same best design as an untraced one.
// The emitted JSONL must cover every pipeline stage and round-trip
// through the Chrome trace_event exporter.
func TestTracingDeterminism(t *testing.T) {
	var jsonl bytes.Buffer
	tr := obs.New(obs.NewJSONL(&jsonl))
	traced := buildSW(t, tr, false)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	plain := buildSW(t, nil, false)

	// Byte-identical trajectories: same (virtual minute, objective) pairs
	// in the same order.
	tj := fmt.Sprintf("%v", traced.Outcome.Trajectory)
	pj := fmt.Sprintf("%v", plain.Outcome.Trajectory)
	if tj != pj {
		t.Errorf("tracing perturbed the trajectory:\ntraced  %s\nuntraced %s", tj, pj)
	}
	if got, want := traced.Outcome.Best.Point.Key(), plain.Outcome.Best.Point.Key(); got != want {
		t.Errorf("best design differs: traced %s, untraced %s", got, want)
	}
	tb := math.Float64bits(traced.Outcome.Best.Objective)
	pb := math.Float64bits(plain.Outcome.Best.Objective)
	if tb != pb {
		t.Errorf("best objective differs: traced %x, untraced %x", tb, pb)
	}
	if traced.Outcome.Evaluations != plain.Outcome.Evaluations {
		t.Errorf("evaluation count differs: traced %d, untraced %d",
			traced.Outcome.Evaluations, plain.Outcome.Evaluations)
	}
	if traced.Outcome.StopReason != plain.Outcome.StopReason {
		t.Errorf("stop reason differs: traced %s, untraced %s",
			traced.Outcome.StopReason, plain.Outcome.StopReason)
	}

	// Every pipeline stage must have opened at least one span.
	events, err := obs.ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	begun := map[string]bool{}
	for _, e := range events {
		if e.Ph == obs.PhaseBegin {
			begun[e.Cat] = true
		}
	}
	for _, stage := range []string{"kdsl", "bytecode", "absint", "b2c", "lint", "space", "hls", "dse", "blaze"} {
		if !begun[stage] {
			t.Errorf("no span for pipeline stage %q (got %v)", stage, begun)
		}
	}

	// The JSONL must round-trip through the Chrome exporter into a valid
	// trace_event document Perfetto can load.
	var chrome bytes.Buffer
	if err := obs.WriteChrome(events, &chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(events) {
		t.Errorf("chrome export dropped events: %d < %d", len(doc.TraceEvents), len(events))
	}

	// Maximum observability must still be free: a JSONL and a Chrome
	// sink, the Go runtime sampler emitting into the same trace from its
	// own goroutine, AND the parallel engine (whose pool goroutines run
	// under pprof labels) at once, yet the seed-42 trajectory stays
	// byte-identical to the bare sequential run.
	var heavy, heavyChrome bytes.Buffer
	tr2 := obs.New(obs.Multi(obs.NewJSONL(&heavy), obs.NewChrome(&heavyChrome)))
	stopSampler := obs.StartRuntimeSampler(tr2, time.Millisecond)
	full := buildSW(t, tr2, true)
	stopSampler()
	if err := tr2.Close(); err != nil {
		t.Fatal(err)
	}
	if fj := fmt.Sprintf("%v", full.Outcome.Trajectory); fj != pj {
		t.Errorf("chrome+sampler+parallel run perturbed the trajectory:\nfull     %s\nuntraced %s", fj, pj)
	}
	if got, want := full.Outcome.Best.Point.Key(), plain.Outcome.Best.Point.Key(); got != want {
		t.Errorf("full-observability best design differs: %s vs %s", got, want)
	}
	fb := math.Float64bits(full.Outcome.Best.Objective)
	if fb != pb {
		t.Errorf("full-observability best objective differs: %x vs %x", fb, pb)
	}
	if full.Outcome.Evaluations != plain.Outcome.Evaluations {
		t.Errorf("full-observability evaluation count differs: %d vs %d",
			full.Outcome.Evaluations, plain.Outcome.Evaluations)
	}

	// And the observers must actually have observed: the trace's eval
	// counter matches the outcome, the JSONL holds the DSE run span and
	// the sampler's go.* gauges, and the Chrome document parses.
	if got := tr2.Counters()["dse.evals"]; got != int64(full.Outcome.Evaluations) {
		t.Errorf("trace dse.evals = %d, want %d", got, full.Outcome.Evaluations)
	}
	heavyEvents, err := obs.ReadJSONL(bytes.NewReader(heavy.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sawDSERun, sawRuntime bool
	for _, e := range heavyEvents {
		sawDSERun = sawDSERun || (e.Ph == obs.PhaseBegin && e.Cat == "dse" && e.Name == "run")
		sawRuntime = sawRuntime || (e.Ph == obs.PhaseCounter && strings.HasPrefix(e.Name, "go."))
	}
	if !sawDSERun {
		t.Error("full-observability trace missing the dse/run span")
	}
	if !sawRuntime {
		t.Error("full-observability trace missing the runtime sampler's go.* gauges")
	}
	doc.TraceEvents = nil
	if err := json.Unmarshal(heavyChrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome sink output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(heavyEvents) {
		t.Errorf("chrome sink dropped events: %d < %d", len(doc.TraceEvents), len(heavyEvents))
	}
}
