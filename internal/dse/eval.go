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

// NewEvaluator builds the design-point evaluator used throughout the
// DSE: design point -> Merlin directives (validated by merlin.Check) ->
// HLS estimation of those directives. The objective is estimated kernel
// execution seconds for a batch of n tasks (cycles over achieved
// frequency). The kernel analyses the estimator reads are computed once,
// here, and shared by every point (hls.Analyze).
//
// The evaluator is a pure function of the point (given fixed
// kernel/space/device/options) and touches no shared mutable state, so
// the parallel engine's pool calls it from many goroutines at once.
// Every call charges fresh synthesis minutes: Run memoizes in its prune
// guard, whose identity row serves an exact repeat for 0 minutes.
func NewEvaluator(k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options) tuner.Evaluator {
	an := hls.Analyze(k)
	return func(pt space.Point) tuner.Result {
		return pureEval(an, k, sp, dev, n, opt, pt)
	}
}

// pureEval evaluates one point against the analysis an of k:
// merlin.Check validates the point's directives and an.Price estimates
// them directly, so no annotated kernel is built. Merlin-rejected
// results carry a nil Meta; estimated ones always carry their
// hls.Report.
func pureEval(an *hls.Analysis, k *cir.Kernel, sp *space.Space, dev *fpga.Device, n int64, opt hls.Options, pt space.Point) tuner.Result {
	d := sp.Directives(pt)
	if err := merlin.Check(k, d); err != nil {
		return tuner.Result{
			Point:     pt,
			Objective: rejectPenalty,
			Feasible:  false,
			Minutes:   1, // rejected before synthesis
		}
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
	}
}

// estimate is the evaluator chain's fresh-estimate step, behind the
// prune guard: it prices a point no guard row could serve inside an
// "hls"/"estimate" span (cache=fresh) that closes with the synthesis
// minutes, the feasibility verdict and the bottleneck. The value comes
// from the pure evaluator, inline, or under EngineParallel from the
// point's pool slot by its ID (pool != nil), whichever goroutine
// computed it. With tr == nil nothing is traced.
func estimate(eval tuner.Evaluator, pool *evalPool, tr *obs.Trace) func(space.Point, space.ID) tuner.Result {
	return func(pt space.Point, id space.ID) tuner.Result {
		var span *obs.Span
		if tr != nil {
			span = tr.Begin("hls", "estimate",
				obs.Str("point", pt.Key()), obs.Str("cache", "fresh"))
			tr.Count("hls.estimations", 1)
		}
		var r tuner.Result
		if pool != nil {
			r = pool.fetch(id, pt)
		} else {
			r = eval(pt)
		}
		// Merlin-rejected points carry a nil Meta (estimated results
		// always carry their hls.Report).
		span.End(estimateEndKVs(r, r.Meta == nil && !r.Feasible)...)
		r.Point = pt
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
