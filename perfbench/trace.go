package main

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"s2fa/internal/obs"
	"s2fa/internal/space"
)

// tracer collects the spans of a traced pass: the benchmark's own spans
// around calls into the program's packages (observe), and the spans the
// program already emits through an obs.Trace handed to it (obs, received
// by sink). Everything stays in memory; nothing is written out.
type tracer struct {
	obs *obs.Trace

	mu    sync.Mutex
	us    map[string][]float64 // layer -> span durations in µs
	open  map[int64]openSpan
	fresh []string // point keys of fresh hls/estimate spans, in order
}

type openSpan struct {
	layer string
	ns    int64
	point string
}

func newTracer() *tracer {
	t := &tracer{}
	t.reset()
	t.obs = obs.New(t)
	return t
}

// reset drops everything recorded so far (for example during set-up).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.us = map[string][]float64{}
	t.open = map[int64]openSpan{}
	t.fresh = nil
}

// observe records one span of layer.
func (t *tracer) observe(layer string, d time.Duration) {
	t.mu.Lock()
	t.us[layer] = append(t.us[layer], float64(d.Nanoseconds())/1e3)
	t.mu.Unlock()
}

// durations returns the recorded span durations of layer in µs.
func (t *tracer) durations(layer string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.us[layer]...)
}

// takeFresh returns and clears the design points the program estimated
// fresh since the last call.
func (t *tracer) takeFresh() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := t.fresh
	t.fresh = nil
	return f
}

// Emit implements obs.Sink: it turns the program's span begin/end pairs
// into durations under the layer name "cat.name" and remembers which
// design points the HLS estimator saw fresh.
func (t *tracer) Emit(e obs.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Ph {
	case obs.PhaseBegin:
		s := openSpan{layer: e.Cat + "." + e.Name, ns: e.NS}
		if e.Cat == "hls" && e.Name == "estimate" && e.Args["cache"] == "fresh" {
			s.point, _ = e.Args["point"].(string)
		}
		t.open[e.ID] = s
	case obs.PhaseEnd:
		s, ok := t.open[e.ID]
		if !ok {
			return
		}
		delete(t.open, e.ID)
		t.us[s.layer] = append(t.us[s.layer], float64(e.NS-s.ns)/1e3)
		if s.point != "" {
			t.fresh = append(t.fresh, s.point)
		}
	}
}

// Close implements obs.Sink.
func (t *tracer) Close() error { return nil }

// counter reads one of the program's obs counters.
func (t *tracer) counter(name string) float64 {
	return float64(t.obs.Counters()[name])
}

// parsePoint inverts space.Point.Key ("name=value;" per parameter).
func parsePoint(key string) (space.Point, bool) {
	pt := space.Point{}
	for _, kv := range strings.Split(strings.TrimSuffix(key, ";"), ";") {
		i := strings.LastIndexByte(kv, '=')
		if i < 0 {
			return nil, false
		}
		v, err := strconv.Atoi(kv[i+1:])
		if err != nil {
			return nil, false
		}
		pt[kv[:i]] = v
	}
	return pt, true
}

// replayOrder returns 0..n-1 in a seeded random order: replays walk it
// until their time budget runs out, so whatever they cover is a uniform
// sample of the pass.
func replayOrder(n int) []int {
	return rand.New(rand.NewSource(int64(n))).Perm(n)
}

// timeUS runs f and returns its duration in µs.
func timeUS(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// layerMetrics accumulates per-layer metric values by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name, unit string, v float64) { m[name] = metric{v, unit} }

// quantile records the p-quantile of xs, or nothing when the layer saw
// no calls (the metric then reads 0).
func (m layerMetrics) quantile(name, unit string, xs []float64, p float64) {
	if len(xs) > 0 {
		m.set(name, unit, quantile(xs, p))
	}
}
