package obs

// Periodic runtime/metrics sampling: GC pauses, heap footprint, alloc
// volume, and goroutine count, emitted as go.* trace gauges so a
// recorded run explains not just where the pipeline spent time but what
// the Go runtime was doing underneath it. Sampling is read-only (the
// runtime/metrics API has no side effects) and entirely outside the
// deterministic pipeline: gauges never feed back into a run.

import (
	"runtime/metrics"
	"sync"
	"time"
)

// runtimeSamples maps runtime/metrics names to the gauge names they are
// exported under.
var runtimeSamples = []struct {
	src, gauge string
}{
	{"/sched/goroutines:goroutines", "go.goroutines"},
	{"/memory/classes/heap/objects:bytes", "go.heap_objects_bytes"},
	{"/memory/classes/total:bytes", "go.total_bytes"},
	{"/gc/heap/allocs:bytes", "go.allocs_bytes_total"},
	{"/gc/cycles/total:gc-cycles", "go.gc_cycles_total"},
}

// gcPauses is sampled separately: it is a Float64Histogram, exported as
// p50/p99 gauges in seconds.
const gcPauses = "/sched/pauses/total/gc:seconds"

// SampleRuntime takes one runtime/metrics sample and emits it as go.*
// gauges on tr. Safe to call at any time; a nil trace no-ops.
func SampleRuntime(tr *Trace) {
	if tr == nil {
		return
	}
	samples := make([]metrics.Sample, 0, len(runtimeSamples)+1)
	for _, rs := range runtimeSamples {
		samples = append(samples, metrics.Sample{Name: rs.src})
	}
	samples = append(samples, metrics.Sample{Name: gcPauses})
	metrics.Read(samples)
	for i, rs := range runtimeSamples {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			tr.Gauge(rs.gauge, float64(samples[i].Value.Uint64()))
		case metrics.KindFloat64:
			tr.Gauge(rs.gauge, samples[i].Value.Float64())
		}
	}
	if p := samples[len(samples)-1]; p.Value.Kind() == metrics.KindFloat64Histogram {
		h := p.Value.Float64Histogram()
		tr.Gauge("go.gc_pause_p50_seconds", histQuantile(h, 0.50))
		tr.Gauge("go.gc_pause_p99_seconds", histQuantile(h, 0.99))
	}
}

// histQuantile reads an approximate quantile off a runtime
// Float64Histogram (bucket upper bound at the target rank).
func histQuantile(h *metrics.Float64Histogram, p float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			// Buckets[i+1] is bucket i's upper bound; the first and last
			// boundaries may be ±Inf, so fall back to the finite side.
			hi := h.Buckets[i+1]
			if hi > 1e18 || hi < -1e18 { // treat ±Inf-ish as open
				hi = h.Buckets[i]
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// StartRuntimeSampler samples runtime metrics into tr every interval
// until the returned stop function is called. Stop is idempotent and
// waits for the sampling goroutine to exit; it always takes one final
// sample so short runs still record their footprint. Call it before
// closing tr. A nil trace starts nothing and returns a no-op stop.
func StartRuntimeSampler(tr *Trace, interval time.Duration) (stop func()) {
	if tr == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				SampleRuntime(tr)
			case <-done:
				SampleRuntime(tr)
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		wg.Wait()
	}
}
