package s2fa

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§5), plus micro-benchmarks for the pipeline stages. The
// experiment benches regenerate the corresponding artifact end to end on
// every iteration (virtual synthesis clock — seconds of real time for
// four modeled hours of DSE).
//
//	go test -bench=. -benchmem

import (
	"math/rand"
	"testing"

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
	"s2fa/internal/space"
)

// BenchmarkFig3DSETrajectories regenerates Fig. 3: S2FA vs vanilla
// OpenTuner DSE trajectories for every workload kernel.
func BenchmarkFig3DSETrajectories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		r, err := exp.Fig3(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) != len(apps.All()) {
			b.Fatalf("got %d series, want %d", len(r.Series), len(apps.All()))
		}
	}
}

// BenchmarkFig3DSETrajectoriesPar8 is the same regeneration on the
// concurrent engine with an 8-goroutine evaluation pool (cmd/s2fa -par 8).
// The result is byte-identical to the sequential run; only wall-clock
// changes. On a multi-core machine this is the headline speedup of the
// parallel engine; on one core it measures its overhead.
func BenchmarkFig3DSETrajectoriesPar8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		s.Engine = dse.EngineParallel
		s.Parallelism = 8
		r, err := exp.Fig3(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Series) != len(apps.All()) {
			b.Fatalf("got %d series, want %d", len(r.Series), len(apps.All()))
		}
	}
}

// BenchmarkFig4Speedups regenerates Fig. 4: manual and S2FA design
// speedups over the JVM for every workload kernel.
func BenchmarkFig4Speedups(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		r, err := exp.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		if r.MeanSpeedup <= 1 {
			b.Fatalf("mean speedup %.2f", r.MeanSpeedup)
		}
	}
}

// BenchmarkTable1DesignSpaces regenerates the per-application design
// space summary (Table 1 instantiated).
func BenchmarkTable1DesignSpaces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		rows, err := exp.Table1(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(apps.All()) {
			b.Fatalf("got %d rows, want %d", len(rows), len(apps.All()))
		}
	}
}

// BenchmarkTable2ResourceUtilization regenerates Table 2: resource
// utilization and frequency of the best DSE designs.
func BenchmarkTable2ResourceUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		rows, err := exp.Table2(s)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != len(apps.All()) {
			b.Fatalf("got %d rows, want %d", len(rows), len(apps.All()))
		}
	}
}

// BenchmarkStoppingCriteriaAblation regenerates the §5.2 stopping
// criteria study (entropy vs trivial).
func BenchmarkStoppingCriteriaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		if _, err := exp.StoppingAblation(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline micro-benchmarks ---

// BenchmarkFrontend measures kdsl parsing + type checking + bytecode
// generation across every workload kernel.
func BenchmarkFrontend(b *testing.B) {
	srcs := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := kdsl.CompileSource(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBytecodeToC measures the decompiler (CFG, lifting,
// structuring, flattening) across every workload kernel.
func BenchmarkBytecodeToC(b *testing.B) {
	var cls []*apps.App
	for _, a := range apps.All() {
		if _, err := a.Class(); err != nil {
			b.Fatal(err)
		}
		cls = append(cls, a)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range cls {
			c, _ := a.Class()
			if _, err := b2c.Compile(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileCold measures the full source-to-kernel pipeline
// (frontend + verify + absint + b2c) per kernel set, no caching.
func BenchmarkCompileCold(b *testing.B) {
	srcs := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			cls, err := kdsl.CompileSource(src)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := b2c.Compile(cls); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCompileCached measures the same pipeline served from the
// content-addressed compile cache (every iteration after the first is a
// source-memo hit: one SHA-256 of the source plus one integrity check of
// the cached kernel).
func BenchmarkCompileCached(b *testing.B) {
	srcs := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		srcs = append(srcs, a.Source)
	}
	cache := ccache.New()
	for _, src := range srcs { // warm the cache
		if _, _, err := cache.CompileSource(src, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, _, err := cache.CompileSource(src, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHLSEstimate measures one analytic synthesis evaluation of the
// Smith-Waterman kernel, the kernel analyses included (hls.Estimate).
func BenchmarkHLSEstimate(b *testing.B) {
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	ann, err := merlin.Annotate(k, sp.Directives(sp.PerformanceSeed()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hls.Estimate(ann, dev, int64(a.Tasks), hls.Options{})
	}
}

// BenchmarkHLSPrice measures pricing one design point of the
// Smith-Waterman kernel the way the DSE does: its directives laid out
// against the prebuilt analysis and priced, with the per-kernel analyses
// off the clock and no annotated kernel built.
func BenchmarkHLSPrice(b *testing.B) {
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	d := sp.Directives(sp.PerformanceSeed())
	if err := merlin.Check(k, d); err != nil {
		b.Fatal(err)
	}
	an := hls.Analyze(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts, widths := an.Directives(d)
		priceSink = an.Price(opts, widths, dev, int64(a.Tasks), hls.Options{})
	}
}

// priceSink keeps BenchmarkHLSPrice's result live so the compiler cannot
// drop the priced call.
var priceSink hls.Report

// BenchmarkPointIdentity measures what every DSE table pays to identify
// a design point it has seen before: the Smith-Waterman performance
// seed looked up in a point table that already holds it.
func BenchmarkPointIdentity(b *testing.B) {
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		b.Fatal(err)
	}
	sp := space.Identify(k)
	pt := sp.PerformanceSeed()
	points := space.NewTable(sp)
	points.ID(pt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idSink = points.ID(pt)
	}
}

// idSink keeps BenchmarkPointIdentity's lookups live.
var idSink space.ID

// BenchmarkMerlinMaterialize measures structural transformation (tile +
// unroll with tree reduction) of the LR kernel.
func BenchmarkMerlinMaterialize(b *testing.B) {
	a := apps.Get("LR")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	d := merlin.Directives{Loops: map[string]cir.LoopOpt{
		k.TaskLoopID: {Parallel: 3, Pipeline: cir.PipeOn},
	}}
	for _, l := range k.Loops() {
		if l.ID != k.TaskLoopID && l.TripCount() >= 4 {
			d.Loops[l.ID] = cir.LoopOpt{Parallel: 4}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merlin.Materialize(k, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJVMInterpreter measures the bytecode interpreter on AES
// blocks (tasks/op for the baseline cost model).
func BenchmarkJVMInterpreter(b *testing.B) {
	a := apps.Get("AES")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 16)
	vm := jvmsim.New(cls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Call(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJVMBaseline measures the single-thread JVM baseline on every
// workload under both engines: the switch-dispatch interpreter and the
// typed JIT. Outputs and Counts are bit-identical
// across engines (internal/apps TestJITDifferentialAllApps); this
// measures the wall-clock the suite stops spending on its largest
// serial cost center, and the allocations: a warm JIT batch allocates
// only what escapes in its outputs.
func BenchmarkJVMBaseline(b *testing.B) {
	for _, a := range apps.All() {
		a := a
		cls, err := a.Class()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		tasks := a.Gen(rng, 8)
		b.Run(a.Name+"/interp", func(b *testing.B) {
			vm := jvmsim.New(cls)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.CallBatch(tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(a.Name+"/jit", func(b *testing.B) {
			vm := jvmsim.New(cls)
			if !vm.TryJIT() {
				b.Fatal("TryJIT = false")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.CallBatch(tasks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelEvaluator measures the HLS-C evaluator on KMeans tasks
// (functional FPGA emulation speed); each iteration compiles a fresh
// evaluator, so the figure includes NewEvaluator.
func BenchmarkKernelEvaluator(b *testing.B) {
	a := apps.Get("KMeans")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 64)
	layout := blaze.Layout{Class: cls, Kernel: k}
	bufs, err := layout.Serialize(tasks)
	if err != nil {
		b.Fatal(err)
	}
	for name, out := range layout.AllocOutputs(len(tasks)) {
		bufs[name] = out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := cir.NewEvaluator(k)
		if err := ev.Execute(len(tasks), bufs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialization measures the Blaze data processing methods
// (JVM objects <-> flat kernel buffers) on S-W pairs.
func BenchmarkSerialization(b *testing.B) {
	a := apps.Get("S-W")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 128)
	layout := blaze.Layout{Class: cls, Kernel: k}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.Serialize(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerializationReuse is BenchmarkSerialization through a
// reused Encoder (the runtime's steady-state offload path): the encode
// buffers are grown once and rewritten per batch.
func BenchmarkSerializationReuse(b *testing.B) {
	a := apps.Get("S-W")
	cls, err := a.Class()
	if err != nil {
		b.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	tasks := a.Gen(rng, 128)
	layout := blaze.Layout{Class: cls, Kernel: k}
	enc := layout.NewEncoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(tasks); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDSEKMeans measures one full S2FA DSE run on the KMeans kernel
// (virtual 4-hour budget).
func BenchmarkDSEKMeans(b *testing.B) {
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	dev := fpga.VU9P()
	sp := space.Identify(k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval := dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})
		out := dse.Run(k, sp, eval, dse.S2FAConfig(int64(i)+1))
		if !out.Best.Feasible {
			b.Fatal("no feasible design")
		}
	}
}

// BenchmarkComponentAblation regenerates the per-mechanism DSE ablation
// (seeds / partitions / entropy stopping) documented in EXPERIMENTS.md.
func BenchmarkComponentAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := exp.NewSuite(1)
		r, err := exp.ComponentAblation(s, []string{"KMeans", "AES"})
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) != 2 {
			b.Fatalf("rows = %d", len(r.Rows))
		}
	}
}
