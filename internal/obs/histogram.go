package obs

// Histogram is the deterministic log-scale-bucket histogram behind every
// latency percentile the framework reports: internal/report aggregates
// stage durations read back from a trace into one per stage, and
// s2fa-bench summarizes its micro-benchmark timings with it. Bucket
// boundaries are built by repeated IEEE-754 multiplication (never
// math.Pow/Log), so bucket assignment — and therefore every quantile —
// is bit-reproducible.

import (
	"math"
	"sort"
)

// Histogram bucket geometry: log-scale buckets growing by histGrowth per
// step, spanning [histMinBound, histMaxBound). Values below the span
// land in a dedicated underflow bucket, values at or above it in an
// overflow bucket, so Observe never drops a sample. With growth 1.25 the
// resolution is ~10 buckets per decade — a p99 read off a bucket upper
// bound is within 25% of the true sample, which is enough to rank
// stages and spot multi-modal latency.
const (
	histMinBound = 1e-6
	histMaxBound = 1e9
	histGrowth   = 1.25
)

// histBounds[i] is the lower bound of bucket i; bucket i covers
// [histBounds[i], histBounds[i+1]). Built once, deterministically.
var histBounds = func() []float64 {
	var b []float64
	for v := histMinBound; v < histMaxBound; v *= histGrowth {
		b = append(b, v)
	}
	return append(b, histMaxBound)
}()

// Histogram is a fixed-geometry log-bucket histogram. It additionally
// tracks the exact count, sum, min, and max, so the mean and the
// quantile clamp are not subject to bucket resolution. Not safe for
// concurrent use.
type Histogram struct {
	counts   []uint64 // len(histBounds)-1 buckets
	under    uint64   // samples < histMinBound (incl. <= 0)
	over     uint64   // samples >= histMaxBound (incl. +Inf)
	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, len(histBounds)-1)}
}

// Observe records one sample. NaN is ignored; +Inf counts into the
// overflow bucket and -Inf into the underflow bucket (their sum
// contribution is clamped to the span so the mean stays finite).
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	switch {
	case v < histMinBound:
		h.under++
		if v > 0 {
			h.sum += v
		}
	case v >= histMaxBound:
		h.over++
		h.sum += histMaxBound
	default:
		// The first bound >= v is the bucket's upper edge; v's bucket is
		// the one before it. sort.Search over the shared bounds table is
		// what makes assignment deterministic.
		i := sort.SearchFloat64s(histBounds, v)
		if histBounds[i] > v {
			i--
		}
		h.counts[i]++
		h.sum += v
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the exact sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the deterministic bucket-based p-quantile (p in
// [0,1]): the upper bound of the bucket holding the ceil(p*count)-th
// smallest sample, clamped to the exact observed [min, max]. The clamp
// makes single-sample histograms exact at every p and keeps q(1) equal
// to the true maximum; monotonicity in p holds by construction. Returns
// 0 when empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	v := histMaxBound
	switch {
	case h.under >= rank:
		v = histMinBound
	default:
		cum = h.under
		found := false
		for i, c := range h.counts {
			cum += c
			if cum >= rank {
				v = histBounds[i+1]
				found = true
				break
			}
		}
		if !found {
			v = histMaxBound // rank lands in the overflow bucket
		}
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// P50, P90, and P99 are the quantiles every report reads.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P90() float64 { return h.Quantile(0.90) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }
