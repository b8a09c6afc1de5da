package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// fig3-suite: op i computes app i%12 of regeneration i/12 through
// exp.Suite.Result with the vanilla DSE: the JVM baseline, the S2FA DSE,
// the manual design's estimate and the vanilla DSE. Regeneration r runs
// on a fresh exp.NewSuite(seed+r) with the sequential engine, so a round
// is one whole Fig. 3 / Fig. 4 regeneration.
var fig3Workload = &workload{name: "fig3-suite", round: len(apps.All()), gen: genFig3}

type fig3Inst struct {
	seed int64
	apps []*apps.App
}

func genFig3(seed int64) (instance, error) {
	return &fig3Inst{seed: seed, apps: apps.All()}, nil
}

func (in *fig3Inst) digest() string {
	d := newDigester(fig3Workload.name)
	for _, a := range in.apps {
		d.str(a.Name)
		d.str(a.Source)
		d.int(int64(a.Tasks))
	}
	for r := int64(0); r < 64; r++ {
		d.int(in.seed + r)
	}
	return d.sum()
}

// prepare has nothing to compute: the checks re-derive their references.
func (in *fig3Inst) prepare() error { return nil }

// setup compiles and JIT-compiles the 12 app kernels that every
// regeneration reuses. apps.App memoizes its kernel and jvmsim its JIT
// program, so the timed work is the uncached equivalent.
func (in *fig3Inst) setup(tr *tracer) (session, error) {
	for _, a := range in.apps {
		cls, err := kdsl.CompileSource(a.Source)
		if err != nil {
			return nil, err
		}
		if _, err := b2c.Compile(cls); err != nil {
			return nil, err
		}
		if _, err := jvmsim.Compile(cls); err != nil {
			return nil, err
		}
	}
	for _, a := range in.apps {
		cls, err := a.Class()
		if err != nil {
			return nil, err
		}
		if _, err := jvmsim.CompileCached(cls); err != nil {
			return nil, err
		}
	}
	return &fig3Session{in: in, tr: tr}, nil
}

type fig3Session struct {
	in *fig3Inst
	tr *tracer

	suite  *exp.Suite
	suiteR int
	// Per completed regeneration (untraced): the paper's Fig. 3 / Fig. 4
	// headline numbers.
	saving, qor, speedup []float64
	// Per S2FA DSE run.
	runs []dseRun
	// Fresh design points of the traced pass, for the Merlin/HLS replay.
	fresh []freshPoint
}

// dseRun is one S2FA DSE run as the benchmark saw it.
type dseRun struct {
	out   *dse.Outcome
	runUS float64 // traced: dse.Run span
	evals evalStats
}

// freshPoint is a design point the HLS estimator evaluated fresh.
type freshPoint struct {
	k     *cir.Kernel
	sp    *space.Space
	dev   *fpga.Device
	tasks int64
	pt    space.Point
}

// evalStats is what the evaluator decorator records about one DSE run:
// calls that reached the memoizing evaluator, how many of those ran
// Merlin + HLS fresh, and the time spent inside it.
type evalStats struct {
	calls, fresh int
	us           float64
	points       []space.Point
}

// decorate wraps a DSE evaluator to record every call. Fresh
// evaluations charge synthesis minutes (at least one); memo hits charge
// none. Safe for concurrent callers.
func decorate(ev tuner.Evaluator, st *evalStats) tuner.Evaluator {
	var mu sync.Mutex
	return func(pt space.Point) tuner.Result {
		t0 := time.Now()
		r := ev(pt)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		mu.Lock()
		st.calls++
		st.us += us
		if r.Minutes > 0 {
			st.fresh++
			st.points = append(st.points, pt.Clone())
		}
		mu.Unlock()
		return r
	}
}

func (s *fig3Session) op(i int) opResult {
	n := len(s.in.apps)
	r, a := i/n, s.in.apps[i%n]
	seed := s.in.seed + int64(r)
	if s.tr != nil {
		return s.tracedOp(seed, a)
	}
	if s.suite == nil || s.suiteR != r {
		s.suite, s.suiteR = exp.NewSuite(seed), r
	}
	c := &clock{}
	var res *exp.AppResult
	var err error
	c.call("exp.result", func() { res, err = s.suite.Result(a.Name, exp.Modes{Vanilla: true}) })
	if err != nil {
		return c.result(a.Name, err)
	}
	out := c.result(a.Name, checkBest(res.Kernel, res.Space, res.S2FA, res.BestReport, s.suite.Device, a.Tasks))
	out.fp = fig3FP(res.JVMSeconds, res.S2FA, res.Vanilla, res.ManualReport)
	s.runs = append(s.runs, dseRun{out: res.S2FA})
	if i%n == n-1 {
		if err := s.regenerationDone(); err != nil && out.err == nil {
			out.err = err
		}
	}
	return out
}

// regenerationDone assembles Fig. 3 and Fig. 4 from the finished suite
// (all results are memoized by now) and records their headline numbers.
func (s *fig3Session) regenerationDone() error {
	f3, err := exp.Fig3(s.suite, nil)
	if err != nil {
		return err
	}
	f4, err := exp.Fig4(s.suite)
	if err != nil {
		return err
	}
	s.saving = append(s.saving, f3.AvgTimeSavingPct)
	s.qor = append(s.qor, f3.QoRImprovement)
	s.speedup = append(s.speedup, f4.MeanSpeedup)
	s.suite = nil
	return nil
}

// tracedOp computes the same result as exp.Suite.Result with vanilla
// DSE, call for call, with a span around each call and a decorator on
// each DSE evaluator.
func (s *fig3Session) tracedOp(seed int64, a *apps.App) opResult {
	c := &clock{tr: s.tr}
	dev := fpga.VU9P()
	tasks := int64(a.Tasks)
	var (
		k       *cir.Kernel
		sp      *space.Space
		jvm     float64
		s2fa    *dse.Outcome
		vanilla *dse.Outcome
		manual  hls.Report
		err     error
	)
	c.call("apps.kernel", func() { k, err = a.Kernel() })
	if err != nil {
		return c.result(a.Name, err)
	}
	c.call("jvmsim.baseline", func() { jvm, err = exp.JVMSecondsForEngine(a, a.Tasks, true, nil) })
	if err != nil {
		return c.result(a.Name, err)
	}
	c.call("space.identify", func() { sp = space.Identify(k) })

	run := dseRun{}
	cfg := dse.S2FAConfig(seed)
	cfg.Device = dev
	ev := decorate(dse.NewEvaluator(k, sp, dev, tasks, hls.Options{}), &run.evals)
	d := c.call("dse.run", func() { s2fa = dse.Run(k, sp, ev, cfg) })
	run.out, run.runUS = s2fa, float64(d.Nanoseconds())/1e3
	best, _ := dse.Report(s2fa.Best)

	c.call("exp.manual", func() {
		loops, bw := a.Manual.Directives(k)
		var ann *cir.Kernel
		if ann, err = merlin.Annotate(k, merlin.Directives{Loops: loops, BitWidths: bw}); err == nil {
			manual = hls.Estimate(ann, dev, tasks, hls.Options{StageSplit: a.Manual.StageSplit})
		}
	})
	if err != nil {
		return c.result(a.Name, err)
	}

	var vstats evalStats
	vev := dse.FlatInfeasible(decorate(dse.NewEvaluator(k, sp, dev, tasks, hls.Options{}), &vstats))
	c.call("dse.run.vanilla", func() { vanilla = dse.Run(k, sp, vev, dse.VanillaConfig(seed)) })

	out := c.result(a.Name, checkBest(k, sp, s2fa, best, dev, a.Tasks))
	out.fp = fig3FP(jvm, s2fa, vanilla, manual)
	for _, st := range []*evalStats{&run.evals, &vstats} {
		for _, pt := range st.points {
			s.fresh = append(s.fresh, freshPoint{k: k, sp: sp, dev: dev, tasks: tasks, pt: pt})
		}
		st.points = nil
	}
	s.runs = append(s.runs, run)
	return out
}

// checkBest re-runs Merlin and the HLS estimator on a DSE's best point:
// the report must equal the one the DSE served, or a prune, collapse or
// memo shortcut handed out a report that belongs to another design.
func checkBest(k *cir.Kernel, sp *space.Space, o *dse.Outcome, served hls.Report, dev *fpga.Device, tasks int) error {
	if !o.Best.Feasible {
		return fmt.Errorf("%s: the DSE found no feasible design", k.Name)
	}
	ann, err := merlin.Annotate(k, sp.Directives(o.Best.Point))
	if err != nil {
		return fmt.Errorf("%s: annotating the best design: %w", k.Name, err)
	}
	if rep := hls.Estimate(ann, dev, int64(tasks), hls.Options{}); rep != served {
		return fmt.Errorf("%s: re-estimating the best design gives %+v, the DSE served %+v", k.Name, rep, served)
	}
	return nil
}

func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// outcomeFP fingerprints a DSE outcome: everything a reader of Fig. 3
// or of a build sees.
func outcomeFP(o *dse.Outcome) string {
	return fmt.Sprintf("{evals=%d vmin=%s best=%s point=%s first=%s traj=%d stop=%s pruned=%d/%d/%d/%d}",
		o.Evaluations, g(o.TotalMinutes), g(o.Best.Objective), o.Best.Point.Key(), g(o.FirstFeasible),
		len(o.Trajectory), o.StopReason, o.StaticallyPruned, o.DependPruned, o.AccessPruned, o.RangeCollapsed)
}

func fig3FP(jvm float64, s2fa, vanilla *dse.Outcome, manual hls.Report) string {
	return fmt.Sprintf("jvm=%s s2fa=%s vanilla=%s manual=%s", g(jvm), outcomeFP(s2fa), outcomeFP(vanilla), g(manual.Seconds()))
}

func (in *fig3Inst) layers(r *layerRun) (map[string]metric, error) {
	plain, traced := r.plainS.(*fig3Session), r.traceS.(*fig3Session)
	m := layerMetrics{}
	dseLayers(m, plain.runs, traced.runs)
	replayEstimates(m, traced.fresh, r.replayDeadline)
	m.quantile("space.identify_us_p50", "us", r.tr.durations("space.identify"), 0.5)
	m.set("jvmsim.baseline_ms_per_app", "ms", mean(r.tr.durations("jvmsim.baseline"))/1e3)
	regens := min(len(plain.saving), minOps/len(in.apps))
	m.set("exp.dse_time_saving_pct", "%", mean(plain.saving[:regens]))
	m.set("exp.qor_vs_vanilla", "x", geomean(plain.qor[:regens]))
	m.set("design.speedup_geomean", "x", geomean(plain.speedup[:regens]))
	for _, a := range in.apps {
		m.set("exp.app_ms_p50."+a.Name, "ms", quantile(r.plain.opMS(a.Name), 0.5))
	}
	return m, nil
}

// dseLayers derives the DSE metrics shared by the workloads that run
// S2FA DSEs. Outcome counts come from the untraced runs, over the first
// minOps ops only, which every run makes whatever the machine's speed, so
// they repeat exactly for a seed; evaluator timings and fresh/memo
// splits come from the traced runs.
func dseLayers(m layerMetrics, plain, traced []dseRun) {
	var evals, vmin, obj, sp, dp, ap, rc []float64
	for _, r := range plain[:min(len(plain), minOps)] {
		o := r.out
		evals = append(evals, float64(o.Evaluations))
		vmin = append(vmin, o.TotalMinutes)
		obj = append(obj, o.Best.Objective)
		sp = append(sp, float64(o.StaticallyPruned))
		dp = append(dp, float64(o.DependPruned))
		ap = append(ap, float64(o.AccessPruned))
		rc = append(rc, float64(o.RangeCollapsed))
	}
	m.set("dse.evals_per_kernel", "count", mean(evals))
	m.set("dse.vmin_per_kernel", "min", mean(vmin))
	m.set("design.obj_geomean", "s", geomean(obj))
	m.set("dse.static_pruned", "count", mean(sp))
	m.set("dse.depend_pruned", "count", mean(dp))
	m.set("dse.access_pruned", "count", mean(ap))
	m.set("dse.range_collapsed", "count", mean(rc))

	var runMS, selfMS []float64
	var calls, fresh float64
	for _, r := range traced {
		runMS = append(runMS, r.runUS/1e3)
		selfMS = append(selfMS, (r.runUS-r.evals.us)/1e3)
		calls += float64(r.evals.calls)
		fresh += float64(r.evals.fresh)
	}
	if len(traced) == 0 || calls == 0 {
		return
	}
	m.set("dse.run_ms_p50", "ms", quantile(runMS, 0.5))
	m.set("dse.self_ms_p50", "ms", quantile(selfMS, 0.5))
	m.set("hls.estimations", "count", fresh/float64(len(traced)))
	m.set("hls.memo_hit_frac", "ratio", (calls-fresh)/calls)
}

// replayEstimates re-runs Merlin and the HLS estimator on a uniform
// sample of the fresh design points, timing each separately, until the
// replay deadline.
func replayEstimates(m layerMetrics, pts []freshPoint, deadline time.Time) {
	var ann, est []float64
	rejects := 0
	for _, i := range replayOrder(len(pts)) {
		if time.Now().After(deadline) && len(ann) >= 10 {
			break
		}
		p := pts[i]
		d := p.sp.Directives(p.pt)
		var k *cir.Kernel
		var err error
		ann = append(ann, timeUS(func() { k, err = merlin.Annotate(p.k, d) }))
		if err != nil {
			rejects++
			continue
		}
		est = append(est, timeUS(func() { hls.Estimate(k, p.dev, p.tasks, hls.Options{}) }))
	}
	if len(ann) == 0 {
		return
	}
	m.quantile("merlin.annotate_us_p50", "us", ann, 0.5)
	m.set("merlin.reject_frac", "ratio", float64(rejects)/float64(len(ann)))
	m.quantile("hls.estimate_us_p50", "us", est, 0.5)
	m.quantile("hls.estimate_us_p90", "us", est, 0.9)
}
