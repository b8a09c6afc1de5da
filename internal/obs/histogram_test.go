package obs

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramBucketBoundaries: samples exactly on a bucket's lower
// bound belong to that bucket, values below/above the span land in the
// under/overflow buckets, and no sample is ever dropped.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram()
	h.Observe(histBounds[3]) // exact lower bound of bucket 3
	if h.counts[3] != 1 {
		t.Fatalf("exact bound landed in wrong bucket: %v", h.counts[:6])
	}
	h.Observe(math.Nextafter(histBounds[4], 0)) // just under bucket 4's lower bound
	if h.counts[3] != 2 {
		t.Fatalf("value below next bound not in bucket 3: %v", h.counts[:6])
	}
	h.Observe(0)
	h.Observe(-5)
	h.Observe(histMinBound / 2)
	if h.under != 3 {
		t.Fatalf("under = %d, want 3", h.under)
	}
	h.Observe(histMaxBound)
	h.Observe(math.Inf(1))
	if h.over != 2 {
		t.Fatalf("over = %d, want 2", h.over)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	bucketed := h.under + h.over
	for _, c := range h.counts {
		bucketed += c
	}
	if bucketed != h.Count() {
		t.Fatalf("buckets hold %d of %d samples", bucketed, h.Count())
	}
}

// TestHistogramQuantilesMonotone: q(p) must be non-decreasing in p and
// always within [min, max].
func TestHistogramQuantilesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	for i := 0; i < 500; i++ {
		h.Observe(math.Exp(rng.Float64()*30 - 10))
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("q(%v)=%v < q(prev)=%v", p, q, prev)
		}
		if q < h.min || q > h.max {
			t.Fatalf("q(%v)=%v outside [%v, %v]", p, q, h.min, h.max)
		}
		prev = q
	}
}

// TestHistogramEdgeCases: zero- and one-sample histograms.
func TestHistogramEdgeCases(t *testing.T) {
	empty := NewHistogram()
	if empty.Count() != 0 || empty.P50() != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram must read as zeros")
	}
	one := NewHistogram()
	one.Observe(3.25)
	for _, p := range []float64{0, 0.5, 0.99, 1} {
		if q := one.Quantile(p); q != 3.25 {
			t.Fatalf("single-sample q(%v) = %v, want exact 3.25", p, q)
		}
	}
	if one.min != 3.25 || one.max != 3.25 || one.Mean() != 3.25 {
		t.Fatal("single-sample summary not exact")
	}
	// Nil receivers no-op.
	var nilH *Histogram
	nilH.Observe(1)
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must no-op")
	}
}
