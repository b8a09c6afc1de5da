package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fakeClock returns a deterministic clock ticking 1000ns per call.
func fakeClock() func() int64 {
	var n int64
	return func() int64 {
		n += 1000
		return n
	}
}

// TestNilTraceIsSafe: the disabled trace must no-op on every method —
// pipeline call sites thread a nil *Trace with no guards.
func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	sp := tr.Begin("cat", "name", Str("k", "v"))
	sp.End(Vmin(3))
	tr.BeginT(4, "cat", "name").End()
	tr.Event("cat", "name", Int("n", 1))
	tr.EventT(2, "cat", "name")
	tr.Count("c", 1)
	tr.Gauge("g", 0.5)
	if tr.Counters() != nil {
		t.Fatal("nil trace returned counters")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSpanHierarchyAndClocks: begin/end pairs carry ids, parents nest
// per track, and the Vmin attribute lands in the dedicated dual-clock
// field rather than args.
func TestSpanHierarchyAndClocks(t *testing.T) {
	mem := NewMemory()
	tr := New(mem, WithClock(fakeClock()))
	outer := tr.Begin("b2c", "compile", Str("class", "SW"))
	inner := tr.Begin("bytecode", "verify")
	tr.Event("absint", "fixpoint", Int("iterations", 7))
	inner.End(Bool("ok", true))
	outer.End()
	w := tr.BeginT(3, "dse", "partition", Vmin(0))
	w.End(Vmin(12.5))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	ev := mem.Events()
	if len(ev) != 7 {
		t.Fatalf("got %d events, want 7", len(ev))
	}
	if ev[0].Ph != PhaseBegin || ev[0].ID == 0 || ev[0].Parent != 0 {
		t.Errorf("outer begin = %+v", ev[0])
	}
	if ev[1].Parent != ev[0].ID {
		t.Errorf("inner parent = %d, want %d", ev[1].Parent, ev[0].ID)
	}
	if ev[2].Parent != ev[1].ID {
		t.Errorf("instant parent = %d, want %d", ev[2].Parent, ev[1].ID)
	}
	if ev[3].Ph != PhaseEnd || ev[3].ID != ev[1].ID {
		t.Errorf("inner end = %+v", ev[3])
	}
	if ev[5].TID != 3 || ev[5].VM == nil || *ev[5].VM != 0 {
		t.Errorf("worker begin = %+v", ev[5])
	}
	if ev[6].VM == nil || *ev[6].VM != 12.5 {
		t.Errorf("worker end lost virtual clock: %+v", ev[6])
	}
	if _, inArgs := ev[6].Args["vmin"]; inArgs {
		t.Error("vmin leaked into args")
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].NS <= ev[i-1].NS {
			t.Fatalf("timestamps not increasing at %d", i)
		}
	}
}

// TestCounters: Count accumulates monotonically and each emission
// carries the running total.
func TestCounters(t *testing.T) {
	mem := NewMemory()
	tr := New(mem, WithClock(fakeClock()))
	tr.Count("dse.evals", 1)
	tr.Count("dse.evals", 2)
	tr.Count("hls.cache_hits", 1)
	got := tr.Counters()
	if got["dse.evals"] != 3 || got["hls.cache_hits"] != 1 {
		t.Fatalf("counters = %v", got)
	}
	last := mem.Events()[1]
	if v, _ := last.Args["value"].(int64); v != 3 {
		t.Fatalf("second sample value = %v, want 3", last.Args["value"])
	}
}

// TestJSONLRoundTrip: the JSONL sink's output must decode back into the
// emitted events.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONL(&buf), WithClock(fakeClock()))
	sp := tr.Begin("kdsl", "compile", Str("class", "K"))
	sp.End()
	tr.Event("dse", "entropy", F64("h", 1.25), Vmin(40))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Cat != "kdsl" || events[0].Args["class"] != "K" {
		t.Errorf("begin = %+v", events[0])
	}
	if events[2].VM == nil || *events[2].VM != 40 {
		t.Errorf("instant lost vmin: %+v", events[2])
	}
}

// TestChromeExport: the converter must produce a chrome://tracing
// document whose span ends recover name/cat from their begins.
func TestChromeExport(t *testing.T) {
	var jsonl bytes.Buffer
	tr := New(NewJSONL(&jsonl), WithClock(fakeClock()))
	sp := tr.BeginT(1, "dse", "partition", Vmin(0))
	tr.EventT(1, "dse", "eval", F64("objective", 2))
	sp.End(Vmin(9))
	tr.Count("dse.evals", 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := WriteChrome(events, &chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output is not JSON: %v", err)
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e["ph"].(string))
	}
	// thread_name metadata first: tid 0 (counter) and tid 1 (worker).
	want := []string{"M", "M", "B", "i", "E", "C"}
	if strings.Join(phases, "") != strings.Join(want, "") {
		t.Fatalf("phases = %v, want %v", phases, want)
	}
	end := doc.TraceEvents[4]
	if end["name"] != "partition" || end["cat"] != "dse" {
		t.Errorf("span end did not inherit begin identity: %v", end)
	}
	if vm, _ := end["args"].(map[string]any); vm["vmin"] != 9.0 {
		t.Errorf("end args = %v", end["args"])
	}
}

// TestChromeSinkDirect: -trace-format chrome writes the document
// straight from the sink.
func TestChromeSinkDirect(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewChrome(&buf), WithClock(fakeClock()))
	tr.Begin("hls", "estimate").End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 { // metadata + B + E
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
}

// TestSpanMisnestOutOfOrder: closing a span while younger spans are
// still open must repair the stack (abandoning the younger opens), emit
// a span-misnest diagnostic, and keep later parenting correct.
func TestSpanMisnestOutOfOrder(t *testing.T) {
	mem := NewMemory()
	tr := New(mem, WithClock(fakeClock()))
	outer := tr.Begin("dse", "partition")
	_ = tr.Begin("hls", "estimate") // never closed
	_ = tr.Begin("hls", "model")    // never closed
	outer.End()                     // non-LIFO: two younger spans still open
	next := tr.Begin("dse", "partition")
	next.End()
	tr.Close()

	ev := mem.Events()
	var diag *Event
	for i := range ev {
		if ev[i].Name == "span-misnest" {
			diag = &ev[i]
		}
	}
	if diag == nil {
		t.Fatalf("no diagnostic emitted: %+v", ev)
	}
	if diag.Cat != "obs" || diag.Args["reason"] != "out-of-order" {
		t.Fatalf("diagnostic = %+v", diag)
	}
	if n, _ := diag.Args["abandoned"].(int64); n != 2 {
		t.Fatalf("abandoned = %v, want 2", diag.Args["abandoned"])
	}
	if diag.Args["op"] != "partition" {
		t.Fatalf("diagnostic names wrong span: %+v", diag.Args)
	}
	// The repaired stack must leave the next top-level span unparented.
	for _, e := range ev {
		if e.Ph == PhaseBegin && e.Name == "partition" && e.NS > diag.NS {
			if e.Parent != 0 {
				t.Fatalf("later span parented under abandoned span: %+v", e)
			}
		}
	}
}

// TestSpanMisnestDoubleClose: ending a span twice reports not-open and
// leaves the open stack untouched.
func TestSpanMisnestDoubleClose(t *testing.T) {
	mem := NewMemory()
	tr := New(mem, WithClock(fakeClock()))
	outer := tr.Begin("b2c", "compile")
	inner := tr.Begin("bytecode", "verify")
	inner.End()
	inner.End() // double close
	child := tr.Begin("lint", "check")
	child.End()
	outer.End()
	tr.Close()

	ev := mem.Events()
	var diags, misEnds int
	for _, e := range ev {
		if e.Name == "span-misnest" {
			diags++
			if e.Args["reason"] != "not-open" {
				t.Fatalf("reason = %v", e.Args["reason"])
			}
		}
	}
	if diags != 1 {
		t.Fatalf("got %d diagnostics, want 1", diags)
	}
	// The outer span must still be the parent of the later child: the
	// double close must not pop it.
	var outerID, childParent int64
	for _, e := range ev {
		if e.Ph == PhaseBegin && e.Name == "compile" {
			outerID = e.ID
		}
		if e.Ph == PhaseBegin && e.Name == "check" {
			childParent = e.Parent
		}
	}
	if childParent != outerID {
		t.Fatalf("child parent = %d, want %d (stack corrupted)", childParent, outerID)
	}
	_ = misEnds
}

// TestChromeNonFiniteAndEscaping: non-finite float args (stored as the
// strings "+Inf"/"NaN" by F64) and args needing JSON escaping must
// survive JSONL → Chrome conversion as valid JSON.
func TestChromeNonFiniteAndEscaping(t *testing.T) {
	var jsonl bytes.Buffer
	tr := New(NewJSONL(&jsonl), WithClock(fakeClock()))
	sp := tr.Begin("tuner", "select",
		F64("ucb", math.Inf(1)),
		F64("mean", math.Inf(-1)),
		F64("auc", math.NaN()),
		Str("arm", "quoted \"arm\"\nnewline\tand\\slash"),
		Str("html", "<script>&amp;</script>"))
	sp.End(F64("reward", 0.5))
	tr.Close()

	events, err := ReadJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Args["ucb"] != "+Inf" || events[0].Args["mean"] != "-Inf" || events[0].Args["auc"] != "NaN" {
		t.Fatalf("non-finite args lost: %+v", events[0].Args)
	}
	if events[0].Args["arm"] != "quoted \"arm\"\nnewline\tand\\slash" {
		t.Fatalf("escaped arg lost: %q", events[0].Args["arm"])
	}

	var chrome bytes.Buffer
	if err := WriteChrome(events, &chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output with non-finite args is not JSON: %v", err)
	}
	var begin map[string]any
	for _, e := range doc.TraceEvents {
		if e["ph"] == "B" {
			begin = e
		}
	}
	args := begin["args"].(map[string]any)
	if args["ucb"] != "+Inf" || args["auc"] != "NaN" {
		t.Fatalf("chrome args lost non-finite encoding: %v", args)
	}
	if args["arm"] != "quoted \"arm\"\nnewline\tand\\slash" {
		t.Fatalf("chrome args lost escaping: %q", args["arm"])
	}
}

// TestJSONLCloseWrapsEncodeError: the first Encode failure must surface
// from Close with the failing event's index and identity.
func TestJSONLCloseWrapsEncodeError(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Event{Ph: PhaseBegin, Name: "ok"})
	// Channels are not JSON-serializable, so this Emit fails to encode.
	s.Emit(Event{Ph: PhaseInstant, Name: "poison", Args: map[string]any{"ch": make(chan int)}})
	s.Emit(Event{Ph: PhaseEnd, Name: "after"})
	err := s.Close()
	if err == nil {
		t.Fatal("Close swallowed the encode error")
	}
	msg := err.Error()
	for _, want := range []string{"event 1", "poison", PhaseInstant} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}
