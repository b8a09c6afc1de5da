package dse

import (
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/merlin"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// NewEvaluator builds the design-point evaluator used throughout the DSE:
// design point -> Merlin directives (validated by merlin.Check) -> HLS
// estimation of those directives. The objective is estimated kernel
// execution seconds for a batch of n tasks (cycles over achieved
// frequency). Results are memoized: re-evaluating a synthesized
// configuration costs no additional synthesis time.
func NewEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options) tuner.Evaluator {
	return NewTracedEvaluator(k, sp, dev, n, opt, nil)
}

// NewPureEvaluator is the uncached design-point evaluator: every call
// validates the point's directives with Merlin and prices them, charging
// fresh synthesis minutes. The kernel analyses the estimator reads are
// computed once, here, and shared by every point (hls.Analyze). It is a
// pure function of the point (given fixed kernel/space/device/options)
// and touches no shared mutable state — the shared analysis is read-only
// — so the concurrent engine's worker pool calls it from many goroutines
// at once; memoization is layered on top by the engines (NewTracedEvaluator
// for the sequential path, the replay evaluator for the parallel one).
func NewPureEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options) tuner.Evaluator {
	an := hls.Analyze(k)
	return func(pt space.Point) tuner.Result {
		r, _ := pureEval(an, k, sp, dev, n, opt, pt)
		return r
	}
}

// pureEval evaluates one point against the analysis an of k with no
// cache and no tracing: merlin.Check validates the point's directives
// and an.Price estimates them directly, so no annotated kernel is built.
// The bool reports whether Merlin rejected the point before estimation,
// which the traced wrappers surface in their span args. Rejected results
// carry a nil Meta; estimated ones always carry their hls.Report.
func pureEval(an *hls.Analysis, k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, pt space.Point) (tuner.Result, bool) {
	d := sp.Directives(pt)
	if err := merlin.Check(k, d); err != nil {
		return tuner.Result{
			Point:     pt,
			Objective: rejectPenalty,
			Feasible:  false,
			Minutes:   1, // rejected before synthesis
		}, true
	}
	opts, widths := an.Directives(d)
	rep := an.Price(opts, widths, dev, n, opt)
	obj := rep.Seconds()
	if !rep.Feasible {
		// Graded penalty: infeasible points are never accepted
		// as incumbents, but the learning techniques still see a
		// gradient toward the feasible region (less overflow =
		// smaller penalty), which is how real HLS autotuners
		// escape all-infeasible starting populations.
		obj = infeasiblePenalty * (1 + rep.MaxUtil())
	}
	return tuner.Result{
		Point:     pt,
		Objective: obj,
		Feasible:  rep.Feasible,
		Minutes:   rep.SynthMinutes,
		Meta:      rep,
	}, false
}

// NewTracedEvaluator is NewEvaluator with an "hls"/"estimate" span around
// every invocation: cache hits close immediately with cache=hit, fresh
// estimations carry the Merlin + estimator work and close with the
// synthesis minutes and feasibility verdict. With tr == nil it behaves —
// and costs — exactly like NewEvaluator. The memo table is the sharded
// hls.Cache, so the evaluator is safe for concurrent callers; with a
// single caller its hit/miss sequence is identical to the old plain-map
// implementation. The memo keys on each point's identity in a point
// table over sp, so sp's Restrict sub-boxes share it.
func NewTracedEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, tr *obs.Trace) tuner.Evaluator {
	an := hls.Analyze(k)
	points := space.NewTable(sp)
	cache := hls.NewCache[space.ID, tuner.Result](hls.DefaultCacheShards)
	return func(pt space.Point) tuner.Result {
		r, cached := cache.GetOrCompute(points.ID(pt), func() tuner.Result {
			var span *obs.Span
			if tr != nil {
				span = tr.Begin("hls", "estimate",
					obs.Str("point", pt.Key()), obs.Str("cache", "fresh"))
				tr.Count("hls.estimations", 1)
			}
			res, rejected := pureEval(an, k, sp, dev, n, opt, pt)
			span.End(estimateEndKVs(res, rejected)...)
			tr.Observe("hls_synth_minutes", res.Minutes)
			return res
		})
		if cached {
			r.Point = pt
			r.Minutes = 0 // cached HLS report, no synthesis re-run
			if tr != nil {
				hit := tr.Begin("hls", "estimate",
					obs.Str("point", pt.Key()), obs.Str("cache", "hit"))
				hit.End(obs.F64("synth_min", 0), obs.Bool("feasible", r.Feasible))
				tr.Count("hls.cache_hits", 1)
			}
		}
		return r
	}
}

// estimateEndKVs builds the closing args of a fresh hls/estimate span:
// synthesis minutes and feasibility always, the Merlin rejection marker
// when the point never reached estimation, and the estimator's
// structured bottleneck verdict (tag + offending access site) when the
// report carries one — the fields `s2fa-report` ranks slow estimations
// by.
func estimateEndKVs(res tuner.Result, rejected bool) []obs.KV {
	kvs := make([]obs.KV, 0, 5)
	if rejected {
		kvs = append(kvs, obs.Str("merlin", "rejected"))
	}
	kvs = append(kvs,
		obs.F64("synth_min", res.Minutes),
		obs.Bool("feasible", res.Feasible))
	if rep, ok := res.Meta.(hls.Report); ok {
		if rep.Bottleneck != "" {
			kvs = append(kvs, obs.Str("bottleneck", rep.Bottleneck))
		}
		if rep.BottleneckSite != "" {
			kvs = append(kvs, obs.Str("bottleneck_site", rep.BottleneckSite))
		}
	}
	return kvs
}

// Penalty objectives (seconds-scale but far above any real design).
const (
	infeasiblePenalty = 1e4
	rejectPenalty     = 1e8
)

// FlatInfeasible wraps an evaluator so that every infeasible point
// returns the same flat penalty, erasing the feasibility gradient. This
// models stock OpenTuner, which learns nothing from failed syntheses —
// the behavior that leaves the vanilla flow "trapped in the infeasible
// design space region" (paper §4.3.2) and that S2FA's seed generation
// exists to avoid.
func FlatInfeasible(eval tuner.Evaluator) tuner.Evaluator {
	return func(pt space.Point) tuner.Result {
		r := eval(pt)
		if !r.Feasible {
			r.Objective = rejectPenalty
		}
		return r
	}
}

// Report extracts the HLS report attached to a result, if any.
func Report(r tuner.Result) (hls.Report, bool) {
	rep, ok := r.Meta.(hls.Report)
	return rep, ok
}
