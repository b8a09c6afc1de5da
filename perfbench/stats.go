package main

import (
	"math"
	"sort"
)

// quantile returns the Harrell-Davis estimate of the p-quantile (p in
// [0,1]) of xs: a weighted mean of all order statistics with Beta(p(n+1),
// (1-p)(n+1)) weights. Op times mix several kinds of op (12 apps, hits
// and misses), and a single order statistic jumps whenever the quantile
// falls in a gap between two kinds; the weighted mean moves smoothly.
// xs need not be sorted and is not modified. An empty input yields 0.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 || p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[n-1]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	// The weights vanish beyond a dozen standard deviations of the Beta
	// distribution; only order statistics inside that window are summed.
	sd := math.Sqrt(p*(1-p)/float64(n+2)) + 1/float64(n)
	lo := int(math.Max(0, math.Floor((p-12*sd)*float64(n))))
	hi := int(math.Min(float64(n), math.Ceil((p+12*sd)*float64(n))))
	var sum float64
	prev := betaInc(a, b, float64(lo)/float64(n))
	for i := lo + 1; i <= hi; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes, betai).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 100000
		eps     = 1e-15
		tiny    = 1e-300
	)
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= maxIter; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), which is how run-to-run spread is judged.
// A single value is its own quartiles; an empty input yields zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld, n := len(s), 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// geomean is the geometric mean of the positive finite values in xs (0
// when there are none).
func geomean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 1) {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean (0 for no values).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
