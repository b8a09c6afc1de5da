package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"s2fa/internal/absint"
	"s2fa/internal/access"
	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/bytecode"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/compile"
	"s2fa/internal/core"
	"s2fa/internal/depend"
	"s2fa/internal/dse"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/spark"
)

// build-fresh: op i builds and deploys generated kernel i through
// core.Framework (BuildFromSource + Deploy) with the parallel DSE engine
// on a GOMAXPROCS-sized pool, the way `s2fa -par` runs on a kernel it has
// never seen. The compile cache is shared but every kernel is distinct,
// so it only misses.
var buildWorkload = &workload{name: "build-fresh", round: 1, gen: genBuild}

const (
	// buildPool kernels are generated up front. Every buildPool builds
	// the run starts over on a new cache and manager, so builds stay
	// misses and the cache's memory does not grow with the run's length.
	buildPool = 256
	// buildWarm kernels from another stream are built during set-up, so
	// the first measured build pays no lazy initialization.
	buildWarm = 8
	// buildTasks is the batch size designs are optimized for.
	buildTasks = 1024
	// checkTasks tasks of every built kernel run through Blaze and are
	// compared with the generator's reference semantics.
	checkTasks = 16
)

type buildInst struct {
	seed       int64
	pool, warm []*kdslgen.Kernel
}

func genBuild(seed int64) (instance, error) {
	return &buildInst{
		seed: seed,
		pool: kdslgen.Generate(seed, buildPool),
		warm: kdslgen.Generate(seed+1_000_003, buildWarm),
	}, nil
}

// checkBatch draws the check tasks of pool kernel idx.
func (in *buildInst) checkBatch(idx int) [][]kdslgen.FieldVal {
	rng := rand.New(rand.NewSource(in.seed*7_000_003 + int64(idx)))
	raw := make([][]kdslgen.FieldVal, checkTasks)
	for t := range raw {
		raw[t] = in.pool[idx].NewTask(rng)
	}
	return raw
}

func (in *buildInst) digest() string {
	d := newDigester(buildWorkload.name)
	for _, ks := range [][]*kdslgen.Kernel{in.pool, in.warm} {
		d.int(int64(len(ks)))
		for _, k := range ks {
			d.str(k.Source)
		}
	}
	for idx := 0; idx < 64; idx++ {
		for _, task := range in.checkBatch(idx) {
			d.val(fromFields(task))
		}
	}
	return d.sum()
}

// prepare has nothing to compute: each op's check evaluates the
// generator's reference semantics on the spot.
func (in *buildInst) prepare() error { return nil }

// setup creates the framework, cache and manager and builds the warm-up
// kernels.
func (in *buildInst) setup(tr *tracer) (session, error) {
	s := &buildSession{in: in, tr: tr, ctx: spark.NewContext()}
	s.reset()
	for _, k := range in.warm {
		b, err := s.f.BuildFromSource(k.Source)
		if err != nil {
			return nil, err
		}
		if err := s.f.Deploy(b, s.mgr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

type buildSession struct {
	in  *buildInst
	tr  *tracer
	ctx *spark.Context
	f   *core.Framework
	mgr *blaze.Manager

	runs  []dseRun
	fresh []freshPoint
	srcs  []string
	// par sums the parallel engine's per-build counters.
	par struct{ stallMS, queueMS, waste, misses []float64 }
}

// reset starts a new compile cache, scratch and Blaze manager.
func (s *buildSession) reset() {
	f := core.New()
	f.Seed = s.in.seed
	f.Tasks = buildTasks
	cfg := dse.S2FAConfig(s.in.seed)
	cfg.Engine = dse.EngineParallel
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	f.DSE = &cfg
	f.Cache = ccache.New()
	f.Scratch = compile.NewScratch()
	if s.tr != nil {
		f.Trace = s.tr.obs
	}
	s.f = f
	s.mgr = blaze.NewManager(f.Device)
}

func (s *buildSession) op(i int) opResult {
	idx := i % len(s.in.pool)
	if idx == 0 && i > 0 {
		s.reset()
	}
	k := s.in.pool[idx]
	if s.tr != nil {
		return s.tracedOp(idx)
	}
	c := &clock{}
	var b *core.Build
	var err error
	c.call("core.build", func() {
		if b, err = s.f.BuildFromSource(k.Source); err == nil {
			err = s.f.Deploy(b, s.mgr)
		}
	})
	if err != nil {
		return c.result(k.Name, fmt.Errorf("%s: %w", k.Name, err))
	}
	s.runs = append(s.runs, dseRun{out: b.Outcome})
	return s.finish(c, idx, b)
}

// tracedOp makes the same calls as BuildFromSource + Deploy one by one,
// with the program's own trace attached to the framework.
func (s *buildSession) tracedOp(idx int) opResult {
	k := s.in.pool[idx]
	c := &clock{tr: s.tr}
	before := s.tr.obs.Counters()
	var (
		cls  *bytecode.Class
		kern *cir.Kernel
		b    *core.Build
		err  error
	)
	c.call("core.compile", func() { cls, kern, err = s.f.Compile(k.Source) })
	if err == nil {
		c.call("core.build", func() { b, err = s.f.BuildFromClass(cls, kern) })
	}
	if err == nil {
		c.call("core.deploy", func() { err = s.f.Deploy(b, s.mgr) })
	}
	if err != nil {
		return c.result(k.Name, fmt.Errorf("%s: %w", k.Name, err))
	}

	after := s.tr.obs.Counters()
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	runs := s.tr.durations("dse.run")
	run := dseRun{out: b.Outcome, runUS: runs[len(runs)-1]}
	run.evals.fresh = int(delta("hls.estimations"))
	run.evals.calls = run.evals.fresh + int(delta("hls.cache_hits"))
	// The parallel engine's search loop waits for evaluations only while
	// a merge stalls on them, so that stall is the evaluator's share of
	// the run and the rest is the DSE's self time.
	run.evals.us = delta("dse.par.merge_stall_us")
	s.runs = append(s.runs, run)
	s.par.stallMS = append(s.par.stallMS, delta("dse.par.merge_stall_us")/1e3)
	s.par.queueMS = append(s.par.queueMS, delta("dse.par.queue_wait_us")/1e3)
	s.par.waste = append(s.par.waste, delta("dse.par.speculative_waste"))
	s.par.misses = append(s.par.misses, delta("dse.par.cache.misses"))
	for _, key := range s.tr.takeFresh() {
		pt, ok := parsePoint(key)
		if !ok {
			return c.result(k.Name, fmt.Errorf("%s: unparsable design point %q", k.Name, key))
		}
		s.fresh = append(s.fresh, freshPoint{k: b.Kernel, sp: b.Space, dev: s.f.Device, tasks: buildTasks, pt: pt})
	}
	s.srcs = append(s.srcs, k.Source)
	return s.finish(c, idx, b)
}

func (s *buildSession) finish(c *clock, idx int, b *core.Build) opResult {
	out := c.result(s.in.pool[idx].Name, s.check(idx, b))
	out.fp = outcomeFP(b.Outcome) + " best=" + g(b.Best.Seconds())
	return out
}

// check runs a few tasks of the deployed kernel through Blaze and
// compares them bit for bit with the generator's reference semantics, an
// oracle independent of every compiler stage.
func (s *buildSession) check(idx int, b *core.Build) error {
	k := s.in.pool[idx]
	raw := s.in.checkBatch(idx)
	tasks := make([]jvmsim.Val, len(raw))
	refs := make([]kdslgen.FieldVal, len(raw))
	for t, task := range raw {
		tasks[t] = fromFields(task)
		ref, err := k.Eval(copyFields(task))
		if err != nil {
			return fmt.Errorf("%s: reference task %d: %w", k.Name, t, err)
		}
		refs[t] = ref
	}
	rdd := blaze.Wrap(spark.Parallelize(s.ctx, tasks, 2), s.mgr)
	vm := jvmsim.New(b.Class)
	if k.HasReduce() {
		want := refs[0]
		for _, r := range refs[1:] {
			var err error
			if want, err = k.EvalReduce(want, r); err != nil {
				return fmt.Errorf("%s: reference reduce: %w", k.Name, err)
			}
		}
		got, st, err := rdd.ReduceAcc(vm)
		if err != nil {
			return fmt.Errorf("%s: ReduceAcc: %w", k.Name, err)
		}
		if !st.UsedFPGA {
			return fmt.Errorf("%s: pure kernel fell back to the JVM: %s", k.Name, st.Fallback)
		}
		if !sameVal(fromField(want), got) {
			return fmt.Errorf("%s: Blaze reduced to %v, reference %v", k.Name, got, want)
		}
		return nil
	}
	got, st, err := rdd.MapAcc(vm)
	if err != nil {
		return fmt.Errorf("%s: MapAcc: %w", k.Name, err)
	}
	if !st.UsedFPGA {
		return fmt.Errorf("%s: pure kernel fell back to the JVM: %s", k.Name, st.Fallback)
	}
	want := make([]jvmsim.Val, len(refs))
	for t, r := range refs {
		want[t] = fromField(r)
	}
	if !sameVals(want, got) {
		return fmt.Errorf("%s: Blaze returned %v, reference %v", k.Name, got, want)
	}
	return nil
}

func (in *buildInst) layers(r *layerRun) (map[string]metric, error) {
	plain, traced := r.plainS.(*buildSession), r.traceS.(*buildSession)
	m := layerMetrics{}
	dseLayers(m, plain.runs, traced.runs)
	m.quantile("space.identify_us_p50", "us", r.tr.durations("space.identify"), 0.5)
	m.quantile("core.deploy_us_p50", "us", r.tr.durations("core.deploy"), 0.5)
	m.quantile("b2c.compile_us_p50", "us", r.tr.durations("b2c.compile"), 0.5)
	m.quantile("lint.gate_us_p50", "us", r.tr.durations("lint.gate"), 0.5)
	m.set("dse.par.merge_stall_ms", "ms", mean(traced.par.stallMS))
	m.set("dse.par.queue_wait_ms", "ms", mean(traced.par.queueMS))
	if misses := sum(traced.par.misses); misses > 0 {
		m.set("dse.par.speculative_waste_frac", "ratio", sum(traced.par.waste)/misses)
	}
	// Replay time is split between the two replays.
	half := time.Now().Add(time.Until(r.replayDeadline) / 2)
	replayEstimates(m, traced.fresh, half)
	if err := replayCompile(m, traced.srcs, r.replayDeadline); err != nil {
		return nil, err
	}
	return m, nil
}

// replayCompile re-runs the front half of compilation on a uniform
// sample of sources, timing the stages the compile cache's miss path runs
// without spans of its own: frontend (which includes verification), the
// verifier alone, the abstract interpreter, and the dependence and
// access analyses the cache stores with each kernel.
func replayCompile(m layerMetrics, srcs []string, deadline time.Time) error {
	var kd, vf, ai, dp, ac []float64
	for _, i := range replayOrder(len(srcs)) {
		if time.Now().After(deadline) && len(kd) >= 10 {
			break
		}
		var (
			cls   *bytecode.Class
			facts *absint.ClassFacts
			k     *cir.Kernel
			err   error
		)
		kd = append(kd, timeUS(func() { cls, err = kdsl.CompileSource(srcs[i]) }))
		if err != nil {
			return fmt.Errorf("replaying the frontend: %w", err)
		}
		vf = append(vf, timeUS(func() { err = bytecode.VerifyClass(cls) }))
		if err != nil {
			return fmt.Errorf("replaying the verifier: %w", err)
		}
		ai = append(ai, timeUS(func() { facts, err = absint.AnalyzeClass(cls) }))
		if err != nil {
			return fmt.Errorf("replaying absint: %w", err)
		}
		if k, err = b2c.CompileVerified(cls, facts, nil); err != nil {
			return fmt.Errorf("replaying b2c: %w", err)
		}
		dp = append(dp, timeUS(func() { depend.Analyze(k) }))
		ac = append(ac, timeUS(func() { access.Analyze(k) }))
	}
	m.quantile("kdsl.compile_us_p50", "us", kd, 0.5)
	m.quantile("bytecode.verify_us_p50", "us", vf, 0.5)
	m.quantile("absint.analyze_us_p50", "us", ai, 0.5)
	m.quantile("depend.analyze_us_p50", "us", dp, 0.5)
	m.quantile("access.analyze_us_p50", "us", ac, 0.5)
	return nil
}
