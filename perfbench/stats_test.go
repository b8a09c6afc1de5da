package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestQuantileIsHarrellDavis(t *testing.T) {
	// Expected values from a direct numerical integration of the
	// Harrell-Davis weights.
	cases := []struct {
		xs      []float64
		p, want float64
	}{
		{[]float64{40, 10, 30, 20}, 0.5, 25},
		{[]float64{40, 10, 30, 20}, 0.9, 38.67169868768089},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 0.5, 5.546117325502671},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 0.9, 64.10289084610065},
		{[]float64{3}, 0.9, 3},
		{[]float64{40, 10, 30, 20}, 0, 10},
		{[]float64{40, 10, 30, 20}, 1, 40},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.p); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{40, 10, 30, 20}
	quantile(xs, 0.5)
	if xs[0] != 40 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

func TestQuantileOfManySamples(t *testing.T) {
	// On a large uniform sample the estimate must sit on the true
	// quantile, and summing only the window of non-negligible weights
	// must not lose mass.
	xs := make([]float64, 200001)
	for i := range xs {
		xs[i] = float64(i)
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		want := p * 200000
		if got := quantile(xs, p); math.Abs(got-want) > 1 {
			t.Errorf("quantile(0..200000, %v) = %v, want %v", p, got, want)
		}
	}
}

func TestGeomeanSkipsNonPositive(t *testing.T) {
	if got := geomean([]float64{2, 8, 0, math.Inf(1)}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
	if geomean(nil) != 0 {
		t.Error("geomean of nothing is not 0")
	}
}
