package main

// Performance baseline mode: `-bench FILE` measures the Fig. 3
// regeneration on both DSE engines, the JVM baselines on both JVM
// engines (typed JIT vs interpreter) and the pipeline-stage
// micros, and writes them as JSON; `-bench-check FILE` re-measures and
// fails on regression against the committed baseline. Wall-clock
// comparisons are only meaningful on matching hardware, so every gate
// is conditional:
//
//   - speedup >= minSpeedup and the JIT >= minJITSpeedup gate are
//     enforced only when the current machine has at least 4 CPUs (the
//     PR 4 convention: timing gates are meaningless on starved runners);
//   - the >20% regression gates apply only when the committed baseline
//     was recorded on a machine with the same CPU count.
//
// Besides wall-clock, the mode cross-checks determinism: the Fig. 3 and
// Fig. 4 renders must be byte-identical across the sequential and the
// parallel DSE engine, and every app's JVM seconds must be bit-identical
// on the JIT and on the interpreter.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/merlin"
	"s2fa/internal/obs"
	"s2fa/internal/space"
)

const (
	benchParallelism = 8
	minSpeedup       = 2.0
	// minJITSpeedup gates the typed JIT JVM engine against the
	// interpreter on the S-W batch (the heaviest baseline workload).
	minJITSpeedup   = 3.0
	regressionSlack = 1.20 // fail when current > committed * this
	// minCacheSpeedup gates the compile cache: a full-suite pass served
	// from the cache must beat the cold pipeline by this factor. The
	// ratio is taken on one machine, so (unlike the wall-clock gates) it
	// is enforced unconditionally.
	minCacheSpeedup = 5.0
	// allocRuns is the sample count for the allocation measurements.
	allocRuns = 10
)

type benchReport struct {
	GoVersion string `json:"go_version"`
	Cores     int    `json:"cores"`
	// MaxProcs records GOMAXPROCS at measurement time: a container quota
	// or explicit cap can leave it well below Cores, which changes what
	// the parallel-engine numbers mean when comparing runs.
	MaxProcs int `json:"gomaxprocs"`
	// Fig3SequentialMS / Fig3ParallelMS are the wall-clock of one full
	// Fig. 3 regeneration (every app, S2FA + vanilla DSE, JVM baselines) on
	// each DSE engine; Speedup is their ratio. Baselines recorded while
	// the suite could still interpret also carry fig3_seq_nojit_ms (the
	// sequential run with interpreted baselines) and
	// jvm_share_before_pct (the interpreter's share of it); nothing
	// reads them.
	Fig3SequentialMS float64 `json:"fig3_sequential_ms"`
	Fig3ParallelMS   float64 `json:"fig3_par8_ms"`
	ParallelPool     int     `json:"parallel_pool"`
	Speedup          float64 `json:"speedup"`
	// JVMBaselineInterpMS / JVMBaselineJITMS are the wall-clock of the
	// suite's JVM-baseline calibration (every app) on each engine;
	// JVMShareAfterPct is the JIT's as a percentage of the sequential
	// Fig. 3 regeneration.
	JVMBaselineInterpMS float64 `json:"jvm_baseline_interp_ms"`
	JVMBaselineJITMS    float64 `json:"jvm_baseline_jit_ms"`
	JVMShareAfterPct    float64 `json:"jvm_share_after_pct"`
	// JITSpeedupSW is interpreter/JIT wall-clock on the S-W task batch.
	JITSpeedupSW float64 `json:"jit_speedup_sw"`
	// Scaling is the -cores sweep: one full Fig. 3 regeneration per pool
	// size from 1 to GOMAXPROCS, each verified byte-identical to the
	// sequential render. It is the in-repo data behind the parallel
	// engine's speedup gate — on a multi-core runner the curve shows
	// where the serial scheduler loop stops scaling. Empty unless the
	// sweep was requested.
	Scaling []scalePoint `json:"scaling,omitempty"`
	// StageMicros are per-stage single-threaded microbenchmarks (us/op),
	// mirroring the Benchmark* micros in bench_test.go.
	StageMicros map[string]float64 `json:"stage_micros"`
	// StagePercentiles carry the tail of the same measurement loops
	// (p50/p99 us/op from a log-bucket histogram), so BENCH_* baselines
	// track tail behavior, not just averages. Absent in the earliest
	// baselines; the regression gates read only StageMicros, so old
	// files stay valid.
	StagePercentiles map[string]stagePct `json:"stage_percentiles,omitempty"`
	// CompileColdUSOp / CompileCachedUSOp time one full source-to-kernel
	// pass over the whole workload suite: cold (frontend + verify +
	// absint + b2c per kernel) vs served from the content-addressed
	// compile cache (one source hash + one integrity checksum per
	// kernel). CacheSpeedup is their ratio, gated unconditionally at
	// minCacheSpeedup — a same-machine ratio, unlike the wall-clock
	// gates. Zero in baselines recorded before the cache existed.
	CompileColdUSOp   float64 `json:"compile_cold_us_op,omitempty"`
	CompileCachedUSOp float64 `json:"compile_cached_us_op,omitempty"`
	CacheSpeedup      float64 `json:"cache_speedup,omitempty"`
	// FrontendAllocsPerOp / B2CAllocsPerOp count heap allocations of one
	// cold suite pass of the corresponding stage (runtime.MemStats
	// deltas). Allocation counts are hardware-independent, so their >20%
	// regression gates apply regardless of core counts.
	FrontendAllocsPerOp float64 `json:"frontend_allocs_per_op,omitempty"`
	B2CAllocsPerOp      float64 `json:"b2c_allocs_per_op,omitempty"`
}

// stagePct is the tail of one stage's measurement loop, in us/op.
type stagePct struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

// scalePoint is one pool size of the -cores scaling sweep.
type scalePoint struct {
	Pool int `json:"pool"`
	// MS is the Fig. 3 regeneration wall-clock at this pool size;
	// Speedup is the sequential engine's wall-clock divided by it.
	MS      float64 `json:"ms"`
	Speedup float64 `json:"speedup"`
}

// timeIt measures fn in us/op, iterating until ~200ms of samples.
func timeIt(fn func()) float64 {
	fn() // warm caches
	var n int
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		fn()
		n++
	}
	return float64(time.Since(start).Microseconds()) / float64(n)
}

// timeItDist is timeIt with every iteration also recorded into a
// log-bucket histogram, yielding the tail percentiles alongside the
// mean. The per-iteration clock reads add nanoseconds to a loop whose
// ops are microseconds, so the mean stays comparable with baselines
// recorded by plain timeIt.
func timeItDist(fn func()) (float64, stagePct) {
	fn() // warm caches
	h := obs.NewHistogram()
	var n int
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		t0 := time.Now()
		fn()
		h.Observe(float64(time.Since(t0).Nanoseconds()) / 1e3)
		n++
	}
	mean := float64(time.Since(start).Microseconds()) / float64(n)
	return mean, stagePct{P50: h.P50(), P99: h.P99()}
}

// allocsPerRun reports the mean heap allocations of one fn() call,
// measured over allocRuns calls from runtime.MemStats deltas. Unlike
// wall-clock, the count is hardware-independent.
func allocsPerRun(fn func()) float64 {
	fn() // warm caches and lazy inits
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocRuns
}

// fig3MS regenerates Fig. 3 (timed) and Fig. 4 (on the same warm suite,
// untimed) and returns the Fig. 3 wall-clock plus both renders
// concatenated — the determinism witness compared across engines.
func fig3MS(seed int64, engine dse.Engine, pool int) (float64, string, error) {
	s := exp.NewSuite(seed)
	s.Engine = engine
	s.Parallelism = pool
	start := time.Now()
	r, err := exp.Fig3(s, nil)
	if err != nil {
		return 0, "", err
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	f4, err := exp.Fig4(s)
	if err != nil {
		return 0, "", err
	}
	return ms, r.Render() + "\n" + f4.Render(), nil
}

// jvmBaselineMS times the suite's per-app JVM-baseline calibration (the
// sample batch each AppResult executes) across every workload, on the
// interpreter and on the JIT. It fails unless both engines give every
// app bit-identical JVM seconds: Fig. 4 divides by them, and they
// depend only on the Counts the JIT must preserve.
func jvmBaselineMS() (interpMS, jitMS float64, err error) {
	run := func(jit bool) ([]float64, float64, error) {
		secs := make([]float64, 0, len(apps.All()))
		start := time.Now()
		for _, a := range apps.All() {
			sec, err := exp.JVMSecondsForEngine(a, a.Tasks, jit, nil)
			if err != nil {
				return nil, 0, err
			}
			secs = append(secs, sec)
		}
		return secs, float64(time.Since(start).Microseconds()) / 1000, nil
	}
	interp, interpMS, err := run(false)
	if err != nil {
		return 0, 0, err
	}
	jit, jitMS, err := run(true)
	if err != nil {
		return 0, 0, err
	}
	for i, a := range apps.All() {
		if math.Float64bits(interp[i]) != math.Float64bits(jit[i]) {
			return 0, 0, fmt.Errorf("%s JVM baseline diverged between engines (interpreter %vs, jit %vs) — the JIT broke cost accounting, timings are meaningless",
				a.Name, interp[i], jit[i])
		}
	}
	return interpMS, jitMS, nil
}

// jitSpeedupSW measures interpreter vs typed JIT wall-clock on
// the S-W task batch (the BenchmarkJVMBaseline/S-W pairing).
func jitSpeedupSW() (float64, error) {
	a := apps.Get("S-W")
	cls, err := a.Class()
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 8)
	vmI := jvmsim.New(cls)
	interp := timeIt(func() {
		if _, err := vmI.CallBatch(tasks); err != nil {
			panic(err)
		}
	})
	vmJ := jvmsim.New(cls)
	if !vmJ.TryJIT() {
		return 0, fmt.Errorf("S-W class does not compile for the JIT")
	}
	jit := timeIt(func() {
		if _, err := vmJ.CallBatch(tasks); err != nil {
			panic(err)
		}
	})
	if jit <= 0 {
		return 0, fmt.Errorf("jit batch measured at %.1fus", jit)
	}
	return interp / jit, nil
}

func measure(seed int64, sweepCores bool) (*benchReport, error) {
	rep := &benchReport{
		GoVersion:        runtime.Version(),
		Cores:            runtime.NumCPU(),
		MaxProcs:         runtime.GOMAXPROCS(0),
		ParallelPool:     benchParallelism,
		StageMicros:      map[string]float64{},
		StagePercentiles: map[string]stagePct{},
	}
	stage := func(name string, fn func()) {
		mean, pct := timeItDist(fn)
		rep.StageMicros[name] = mean
		rep.StagePercentiles[name] = pct
	}

	seqMS, seqOut, err := fig3MS(seed, dse.EngineSequential, 0)
	if err != nil {
		return nil, err
	}
	parMS, parOut, err := fig3MS(seed, dse.EngineParallel, benchParallelism)
	if err != nil {
		return nil, err
	}
	if seqOut != parOut {
		return nil, fmt.Errorf("parallel Fig. 3/4 output diverged from sequential — determinism bug, timings are meaningless")
	}
	rep.Fig3SequentialMS = seqMS
	rep.Fig3ParallelMS = parMS
	rep.Speedup = seqMS / parMS

	if sweepCores {
		for pool := 1; pool <= rep.MaxProcs; pool++ {
			ms, out, err := fig3MS(seed, dse.EngineParallel, pool)
			if err != nil {
				return nil, err
			}
			if out != seqOut {
				return nil, fmt.Errorf("pool-%d Fig. 3/4 output diverged from sequential — determinism bug, the scaling curve is meaningless", pool)
			}
			rep.Scaling = append(rep.Scaling, scalePoint{Pool: pool, MS: ms, Speedup: seqMS / ms})
		}
	}

	if rep.JVMBaselineInterpMS, rep.JVMBaselineJITMS, err = jvmBaselineMS(); err != nil {
		return nil, err
	}
	if seqMS > 0 {
		rep.JVMShareAfterPct = 100 * rep.JVMBaselineJITMS / seqMS
	}
	if rep.JITSpeedupSW, err = jitSpeedupSW(); err != nil {
		return nil, err
	}

	srcs := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	stage("frontend", func() {
		for _, src := range srcs {
			if _, err := kdsl.CompileSource(src); err != nil {
				panic(err)
			}
		}
	})
	stage("b2c", func() {
		for _, a := range apps.All() {
			c, _ := a.Class()
			if _, err := b2c.Compile(c); err != nil {
				panic(err)
			}
		}
	})

	coldPass := func() {
		for _, src := range srcs {
			cls, err := kdsl.CompileSource(src)
			if err != nil {
				panic(err)
			}
			if _, err := b2c.Compile(cls); err != nil {
				panic(err)
			}
		}
	}
	cache := ccache.New()
	cachedPass := func() {
		for _, src := range srcs {
			if _, _, err := cache.CompileSource(src, nil); err != nil {
				panic(err)
			}
		}
	}
	rep.CompileColdUSOp = timeIt(coldPass)
	rep.CompileCachedUSOp = timeIt(cachedPass)
	if rep.CompileCachedUSOp > 0 {
		rep.CacheSpeedup = rep.CompileColdUSOp / rep.CompileCachedUSOp
	}
	rep.FrontendAllocsPerOp = allocsPerRun(func() {
		for _, src := range srcs {
			if _, err := kdsl.CompileSource(src); err != nil {
				panic(err)
			}
		}
	})
	rep.B2CAllocsPerOp = allocsPerRun(func() {
		for _, a := range apps.All() {
			c, _ := a.Class()
			if _, err := b2c.Compile(c); err != nil {
				panic(err)
			}
		}
	})

	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		return nil, err
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	d := sp.Directives(sp.PerformanceSeed())
	ann, err := merlin.Annotate(k, d)
	if err != nil {
		return nil, err
	}
	stage("space_identify", func() { space.Identify(k) })
	stage("hls_estimate", func() { hls.Estimate(ann, dev, int64(a.Tasks), hls.Options{}) })
	an := hls.Analyze(k)
	stage("hls_price", func() {
		opts, widths := an.Directives(d)
		an.Price(opts, widths, dev, int64(a.Tasks), hls.Options{})
	})
	stage("merlin_check", func() {
		if err := merlin.Check(k, d); err != nil {
			panic(err)
		}
	})
	stage("merlin_annotate", func() {
		if _, err := merlin.Annotate(k, sp.Directives(sp.PerformanceSeed())); err != nil {
			panic(err)
		}
	})
	// A DSE table's lookup of a point it already holds, against the
	// display Key() every table built before point identities existed.
	// Both ops are sub-microsecond to a few microseconds, so the
	// per-iteration clock reads of timeItDist are part of the figure.
	seedPt := sp.PerformanceSeed()
	points := space.NewTable(sp)
	points.ID(seedPt)
	stage("point_identity", func() { points.ID(seedPt) })
	stage("point_key", func() { _ = seedPt.Key() })

	// The functional emulation behind a Blaze offload: one warm
	// evaluator executing 64 KMeans tasks (the BenchmarkKernelEvaluator
	// batch), and one executing 8 S-W tasks (a Blaze offload's batch,
	// and the app that dominates the offload workload's time), so each
	// stage prices execution, not compilation.
	for _, st := range []struct {
		name, app string
		tasks     int
	}{{"cir_exec", "KMeans", 64}, {"cir_exec_sw", "S-W", 8}} {
		run, err := warmExecute(apps.Get(st.app), st.tasks)
		if err != nil {
			return nil, err
		}
		stage(st.name, run)
	}
	return rep, nil
}

// warmExecute serializes n seeded tasks of app a into its kernel's
// buffers and returns one Execute of a single evaluator over them.
func warmExecute(a *apps.App, n int) (func(), error) {
	cls, err := a.Class()
	if err != nil {
		return nil, err
	}
	k, err := a.Kernel()
	if err != nil {
		return nil, err
	}
	layout := blaze.Layout{Class: cls, Kernel: k}
	bufs, err := layout.Serialize(a.Gen(rand.New(rand.NewSource(5)), n))
	if err != nil {
		return nil, err
	}
	for name, out := range layout.AllocOutputs(n) {
		bufs[name] = out
	}
	ev := cir.NewEvaluator(k)
	ev.MaxSteps = 2_000_000_000
	return func() {
		if err := ev.Execute(n, bufs); err != nil {
			panic(err)
		}
	}, nil
}

func writeBench(path string, seed int64, sweepCores bool) error {
	rep, err := measure(seed, sweepCores)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: fig3 %.0fms sequential, %.0fms par%d (%.2fx) on %d cores\n",
		path, rep.Fig3SequentialMS, rep.Fig3ParallelMS, rep.ParallelPool, rep.Speedup, rep.Cores)
	fmt.Printf("JVM baseline: %.0fms interpreted -> %.0fms jit (%.0f%% of fig3), S-W speedup %.2fx\n",
		rep.JVMBaselineInterpMS, rep.JVMBaselineJITMS, rep.JVMShareAfterPct, rep.JITSpeedupSW)
	printScaling(rep.Scaling)
	return nil
}

// printScaling renders the -cores sweep one pool per line.
func printScaling(curve []scalePoint) {
	for _, p := range curve {
		fmt.Printf("scaling: pool %2d  %8.0fms  %.2fx\n", p.Pool, p.MS, p.Speedup)
	}
}

// runCompileBench is the `-compile N` mode: N timed passes over the
// whole workload suite through the frontend + b2c pipeline, cold vs
// served from the content-addressed compile cache, reported as
// kernels/sec alongside the cache's own counters.
func runCompileBench(n int) error {
	srcs := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	kernels := float64(n * len(srcs))

	// Warm both paths once so lazy initialization is off the clock.
	for _, src := range srcs {
		cls, err := kdsl.CompileSource(src)
		if err != nil {
			return err
		}
		if _, err := b2c.Compile(cls); err != nil {
			return err
		}
	}

	start := time.Now()
	for i := 0; i < n; i++ {
		for _, src := range srcs {
			cls, err := kdsl.CompileSource(src)
			if err != nil {
				return err
			}
			if _, err := b2c.Compile(cls); err != nil {
				return err
			}
		}
	}
	coldSec := time.Since(start).Seconds()

	cache := ccache.New()
	for _, src := range srcs { // first pass populates the cache
		if _, _, err := cache.CompileSource(src, nil); err != nil {
			return err
		}
	}
	start = time.Now()
	for i := 0; i < n; i++ {
		for _, src := range srcs {
			if _, _, err := cache.CompileSource(src, nil); err != nil {
				return err
			}
		}
	}
	cachedSec := time.Since(start).Seconds()

	st := cache.Stats()
	fmt.Printf("compile throughput over %d kernels x %d passes:\n", len(srcs), n)
	fmt.Printf("  cold   : %8.0f kernels/sec (%.1fms per suite pass)\n", kernels/coldSec, 1000*coldSec/float64(n))
	fmt.Printf("  cached : %8.0f kernels/sec (%.1fms per suite pass, %.1fx)\n",
		kernels/cachedSec, 1000*cachedSec/float64(n), coldSec/cachedSec)
	fmt.Printf("  cache  : %d hits (%d source, %d semantic), %d misses, %d poisoned, %d bytes cached\n",
		st.Hits(), st.SourceHits, st.SemanticHits, st.Misses, st.Poisoned, st.Bytes)
	return nil
}

func checkBench(path string, seed int64, sweepCores bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed benchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	cur, err := measure(seed, sweepCores)
	if err != nil {
		return err
	}
	printScaling(cur.Scaling)
	fmt.Printf("baseline  (%d cores, %s): fig3 %.0fms seq, %.0fms par%d, %.2fx; jit S-W %.2fx\n",
		committed.Cores, committed.GoVersion, committed.Fig3SequentialMS,
		committed.Fig3ParallelMS, committed.ParallelPool, committed.Speedup, committed.JITSpeedupSW)
	fmt.Printf("this run  (%d cores, %s): fig3 %.0fms seq, %.0fms par%d, %.2fx; jit S-W %.2fx\n",
		cur.Cores, cur.GoVersion, cur.Fig3SequentialMS,
		cur.Fig3ParallelMS, cur.ParallelPool, cur.Speedup, cur.JITSpeedupSW)

	var failures []string
	if cur.Cores >= 4 {
		if cur.Speedup < minSpeedup {
			failures = append(failures, fmt.Sprintf(
				"parallel engine speedup %.2fx < required %.1fx on %d cores",
				cur.Speedup, minSpeedup, cur.Cores))
		}
		if cur.JITSpeedupSW < minJITSpeedup {
			failures = append(failures, fmt.Sprintf(
				"JVM JIT speedup %.2fx < required %.1fx on S-W (%d cores)",
				cur.JITSpeedupSW, minJITSpeedup, cur.Cores))
		}
	} else {
		fmt.Printf("skipping the %.1fx parallel and %.1fx JIT speedup gates: only %d CPU(s) available\n",
			minSpeedup, minJITSpeedup, cur.Cores)
	}
	// Same-machine ratios and allocation counts are hardware-independent:
	// these gates apply unconditionally.
	fmt.Printf("compile: cold %.0fus/pass, cached %.0fus/pass (%.1fx); allocs/pass frontend %.0f, b2c %.0f\n",
		cur.CompileColdUSOp, cur.CompileCachedUSOp, cur.CacheSpeedup,
		cur.FrontendAllocsPerOp, cur.B2CAllocsPerOp)
	if cur.CacheSpeedup < minCacheSpeedup {
		failures = append(failures, fmt.Sprintf(
			"compile cache speedup %.2fx < required %.1fx (cold %.0fus vs cached %.0fus per suite pass)",
			cur.CacheSpeedup, minCacheSpeedup, cur.CompileColdUSOp, cur.CompileCachedUSOp))
	}
	allocGate := func(name string, committed, current float64) {
		if committed > 0 && current > committed*regressionSlack {
			failures = append(failures, fmt.Sprintf(
				"%s regressed: %.0f -> %.0f allocs/pass (>%.0f%%)",
				name, committed, current, (regressionSlack-1)*100))
		}
	}
	allocGate("frontend allocations", committed.FrontendAllocsPerOp, cur.FrontendAllocsPerOp)
	allocGate("b2c allocations", committed.B2CAllocsPerOp, cur.B2CAllocsPerOp)
	if committed.Cores == cur.Cores {
		gate := func(name string, committed, current float64) {
			if committed > 0 && current > committed*regressionSlack {
				failures = append(failures, fmt.Sprintf(
					"%s regressed: %.1f -> %.1f (>%.0f%%)",
					name, committed, current, (regressionSlack-1)*100))
			}
		}
		gate("fig3_sequential_ms", committed.Fig3SequentialMS, cur.Fig3SequentialMS)
		gate("fig3_par8_ms", committed.Fig3ParallelMS, cur.Fig3ParallelMS)
		gate("jvm_baseline_jit_ms", committed.JVMBaselineJITMS, cur.JVMBaselineJITMS)
		names := make([]string, 0, len(committed.StageMicros))
		for name := range committed.StageMicros {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			gate("stage "+name+" (us/op)", committed.StageMicros[name], cur.StageMicros[name])
		}
	} else {
		fmt.Printf("skipping the >%.0f%% regression gates: baseline was recorded on %d cores, this machine has %d\n",
			(regressionSlack-1)*100, committed.Cores, cur.Cores)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "s2fa-bench: FAIL:", f)
		}
		return fmt.Errorf("%d performance gate(s) failed", len(failures))
	}
	fmt.Println("all performance gates passed")
	return nil
}
