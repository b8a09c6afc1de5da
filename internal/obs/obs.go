// Package obs is the framework's zero-dependency observability layer:
// hierarchical tracing spans, instant events, monotonic counters, and
// gauges (including the Go runtime samples of StartRuntimeSampler),
// emitted to pluggable sinks (JSONL stream, Chrome trace_event file,
// in-memory event list). The trace is the one observability channel:
// internal/report explains a recorded run from its events alone.
//
// Every event carries a dual clock. The real clock is monotonic
// nanoseconds since the trace started and measures where the *tool*
// spends time (compile passes, HLS estimations). The virtual clock is
// the DSE scheduler's simulated wall-clock in minutes — the x-axis of
// the paper's Fig. 3 — attached to events via the Vmin key-value so a
// search trajectory can be replayed against either timeline.
//
// The non-negotiable invariant is that observation never perturbs the
// observed run: a nil *Trace is fully usable (every method no-ops), and
// an enabled trace only reads pipeline state — it draws no randomness
// and owns no search decisions. The determinism test in internal/core
// runs the S-W DSE with and without tracing and asserts byte-identical
// trajectories.
package obs

import (
	"math"
	"sync"
	"time"
)

// KV is one event attribute. Keys are snake_case by convention; the
// reserved key "vmin" (see Vmin) routes to the event's virtual-clock
// field instead of the args map.
type KV struct {
	K string
	V any
}

// Str, Int, I64, F64, and Bool build typed attributes.
func Str(k, v string) KV       { return KV{K: k, V: v} }
func Int(k string, v int) KV   { return KV{K: k, V: int64(v)} }
func I64(k string, v int64) KV { return KV{K: k, V: v} }

// F64 builds a float attribute. JSON has no encoding for non-finite
// floats (the UCB exploration bonus of a never-used bandit arm is +Inf),
// so those are stored as the strings "+Inf", "-Inf", and "NaN".
func F64(k string, v float64) KV {
	switch {
	case math.IsInf(v, 1):
		return KV{K: k, V: "+Inf"}
	case math.IsInf(v, -1):
		return KV{K: k, V: "-Inf"}
	case math.IsNaN(v):
		return KV{K: k, V: "NaN"}
	}
	return KV{K: k, V: v}
}
func Bool(k string, v bool) KV { return KV{K: k, V: v} }

// vminKey is the reserved attribute key carrying the DSE virtual clock.
const vminKey = "vmin"

// Vmin stamps an event with the DSE virtual clock (simulated minutes).
func Vmin(minutes float64) KV { return KV{K: vminKey, V: minutes} }

// Event phases, mirroring the Chrome trace_event phase letters so the
// JSONL stream converts 1:1.
const (
	PhaseBegin   = "B" // span start
	PhaseEnd     = "E" // span end
	PhaseInstant = "i" // instant event
	PhaseCounter = "C" // counter sample
)

// Event is one trace record. The native on-disk form is JSONL: one JSON
// object per line, in emission order.
type Event struct {
	Ph   string `json:"ph"`
	Cat  string `json:"cat,omitempty"`
	Name string `json:"name"`
	// NS is the real clock: nanoseconds since the trace started.
	NS int64 `json:"ns"`
	// TID is the logical track: 0 is the pipeline, DSE workers use
	// worker-index+1 so their partition spans nest per track.
	TID int `json:"tid"`
	// ID and Parent link span begin/end pairs into a hierarchy.
	ID     int64 `json:"id,omitempty"`
	Parent int64 `json:"par,omitempty"`
	// VM is the DSE virtual clock in minutes, when stamped (Vmin).
	VM   *float64       `json:"vmin,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Sink receives events in emission order. Implementations must be safe
// for use from a single Trace (the Trace serializes Emit calls).
type Sink interface {
	Emit(e Event)
	Close() error
}

// Trace is a handle threaded through the pipeline. The zero value of
// *Trace (nil) is a disabled trace: every method is a cheap no-op, so
// call sites need no guards (hot loops may still check Enabled to skip
// argument construction).
type Trace struct {
	mu    sync.Mutex
	sink  Sink
	start time.Time
	now   func() int64 // ns since start; injectable for tests

	nextID   int64
	open     map[int][]int64 // per-tid stack of open span ids
	counters map[string]int64
}

// Option configures a Trace.
type Option func(*Trace)

// WithClock replaces the real clock (nanoseconds since trace start).
// Tests use a deterministic counter so emitted bytes are reproducible.
// api:allow test hook: golden traces and reports need a deterministic clock
func WithClock(now func() int64) Option {
	return func(t *Trace) { t.now = now }
}

// New creates an enabled trace writing to sink.
func New(sink Sink, opts ...Option) *Trace {
	t := &Trace{
		sink: sink,
		//determinism:allow injectable wall clock (WithClock); timestamps are telemetry only
		start:    time.Now(),
		open:     map[int][]int64{},
		counters: map[string]int64{},
	}
	t.now = func() int64 { return time.Since(t.start).Nanoseconds() }
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether events will be recorded. Hot paths check this
// before building attribute lists.
func (t *Trace) Enabled() bool { return t != nil }

// Close flushes and closes the sink.
func (t *Trace) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sink.Close()
}

// Span is an open interval on one track. A nil *Span (from a nil trace)
// no-ops on End.
type Span struct {
	t    *Trace
	id   int64
	tid  int
	cat  string
	name string
}

// Begin opens a span on the pipeline track (tid 0).
func (t *Trace) Begin(cat, name string, kvs ...KV) *Span {
	return t.BeginT(0, cat, name, kvs...)
}

// BeginT opens a span on an explicit track. Spans on one track must
// close LIFO (the Chrome B/E contract).
func (t *Trace) BeginT(tid int, cat, name string, kvs ...KV) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	e := Event{Ph: PhaseBegin, Cat: cat, Name: name, NS: t.now(), TID: tid, ID: id}
	if st := t.open[tid]; len(st) > 0 {
		e.Parent = st[len(st)-1]
	}
	applyKVs(&e, kvs)
	t.open[tid] = append(t.open[tid], id)
	t.sink.Emit(e)
	return &Span{t: t, id: id, tid: tid, cat: cat, name: name}
}

// End closes the span, attaching any final attributes (outcomes,
// virtual end time). Spans on a track are expected to close LIFO; a
// non-LIFO close is repaired (the stack is truncated through this span,
// implicitly abandoning the younger opens) and reported via an
// "obs"/"span-misnest" instant event so later parenting stays sane
// instead of silently corrupting.
func (s *Span) End(kvs ...KV) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{Ph: PhaseEnd, NS: t.now(), TID: s.tid, ID: s.id}
	st := t.open[s.tid]
	switch {
	case len(st) > 0 && st[len(st)-1] == s.id:
		t.open[s.tid] = st[:len(st)-1]
	default:
		found := -1
		for i := len(st) - 1; i >= 0; i-- {
			if st[i] == s.id {
				found = i
				break
			}
		}
		diag := Event{
			Ph: PhaseInstant, Cat: "obs", Name: "span-misnest",
			NS: e.NS, TID: s.tid,
			Args: map[string]any{"span": s.id, "cat": s.cat, "op": s.name},
		}
		if found >= 0 {
			// Out-of-order close: abandon the younger opens so the
			// stack matches reality again.
			diag.Args["reason"] = "out-of-order"
			diag.Args["abandoned"] = int64(len(st) - found - 1)
			t.open[s.tid] = st[:found]
		} else {
			// Double close or close on the wrong track; leave the
			// stack untouched.
			diag.Args["reason"] = "not-open"
		}
		t.sink.Emit(diag)
	}
	applyKVs(&e, kvs)
	t.sink.Emit(e)
}

// Event emits an instant event on the pipeline track.
func (t *Trace) Event(cat, name string, kvs ...KV) { t.EventT(0, cat, name, kvs...) }

// EventT emits an instant event on an explicit track.
func (t *Trace) EventT(tid int, cat, name string, kvs ...KV) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := Event{Ph: PhaseInstant, Cat: cat, Name: name, NS: t.now(), TID: tid}
	if st := t.open[tid]; len(st) > 0 {
		e.Parent = st[len(st)-1]
	}
	applyKVs(&e, kvs)
	t.sink.Emit(e)
}

// Count adds delta to a monotonic counter and emits a sample carrying
// the running total.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += delta
	t.sink.Emit(Event{
		Ph: PhaseCounter, Name: name, NS: t.now(),
		Args: map[string]any{"value": t.counters[name]},
	})
}

// Gauge emits a point-in-time sample of a named quantity.
func (t *Trace) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sink.Emit(Event{
		Ph: PhaseCounter, Name: name, NS: t.now(),
		Args: map[string]any{"value": v},
	})
}

// Counters returns a snapshot of the monotonic counter totals.
func (t *Trace) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for k, v := range t.counters { //determinism:allow — map-to-map copy, order-insensitive

		out[k] = v
	}
	return out
}

func applyKVs(e *Event, kvs []KV) {
	for _, kv := range kvs {
		if kv.K == vminKey {
			if m, ok := kv.V.(float64); ok {
				vm := m
				e.VM = &vm
				continue
			}
		}
		if e.Args == nil {
			e.Args = make(map[string]any, len(kvs))
		}
		e.Args[kv.K] = kv.V
	}
}
