// Command s2fa runs the Spark-to-FPGA-Accelerator pipeline on one kernel:
// it compiles Scala-subset kernel source (or one of the built-in paper
// workloads) to bytecode, decompiles it to HLS C, explores the design
// space, and reports the chosen accelerator design.
//
// Usage:
//
//	s2fa -app S-W                       # built-in workload
//	s2fa -src kernel.scala              # your own kernel class
//	s2fa -app KMeans -dse vanilla       # OpenTuner baseline exploration
//	s2fa -app AES -dump-bytecode -dump-c
//	s2fa -app S-W -lint                 # static verifier findings only
//	s2fa -src kernel.scala -explain     # abstract-interpretation fact report
//	s2fa -app S-W -trace run.json -trace-format chrome   # Perfetto trace
//	s2fa -app KMeans -summary           # post-run report, as s2fa-report renders it
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"s2fa/internal/absint"
	"s2fa/internal/access"
	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/core"
	"s2fa/internal/depend"
	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/lint"
	"s2fa/internal/obs"
	"s2fa/internal/report"
)

func main() {
	var (
		srcPath     = flag.String("src", "", "path to a kernel class source file")
		appName     = flag.String("app", "", "built-in workload name ("+strings.Join(apps.Names(), ", ")+")")
		dseMode     = flag.String("dse", "s2fa", "exploration mode: s2fa | vanilla | trivial")
		par         = flag.Int("par", 0, "run DSE evaluations on N goroutines (0 = sequential reference engine; results are byte-identical either way)")
		tasks       = flag.Int("tasks", 0, "batch size the design is optimized for (0 = the app's own batch, 4096 for -src)")
		seed        = flag.Int64("seed", 1, "random seed (reproducible runs)")
		lintOnly    = flag.Bool("lint", false, "run the static verifier on the generated kernel, print findings, and exit (status 1 on errors)")
		explain     = flag.Bool("explain", false, "print the abstract interpreter's fact report (§3.3 violations with kdsl positions, purity, value ranges) and exit (status 1 on violations)")
		dumpBC      = flag.Bool("dump-bytecode", false, "print the compiled bytecode")
		dumpC       = flag.Bool("dump-c", false, "print the generated HLS C before DSE")
		dumpBest    = flag.Bool("dump-best", false, "print the chosen design's annotated HLS C")
		tracePath   = flag.String("trace", "", "write pipeline + DSE trace events to this file")
		traceFormat = flag.String("trace-format", "jsonl", "trace file format: jsonl | chrome (load the latter in chrome://tracing or Perfetto)")
		summary     = flag.Bool("summary", false, "print the s2fa-report run explanation (stage waterfall, slowest HLS estimations, prune attribution, bandit arms, entropy sparkline, counters) as plain text after the run")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (DSE pool goroutines carry s2fa_pool_worker/s2fa_kernel/s2fa_partition pprof labels)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		runtimeMet = flag.Bool("runtime-metrics", false, "sample Go runtime metrics (GC pause, heap, allocs) as go.* gauges into the run's trace (-trace / -summary) while the run executes")
	)
	flag.Parse()

	if (*srcPath == "") == (*appName == "") {
		fmt.Fprintln(os.Stderr, "specify exactly one of -src or -app")
		flag.Usage()
		os.Exit(2)
	}

	var src string
	app := apps.Get(*appName)
	switch {
	case *srcPath != "":
		data, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		src = string(data)
	case app == nil:
		fmt.Fprintln(os.Stderr, "s2fa: "+unknownAppMessage(*appName))
		os.Exit(2)
	default:
		src = app.Source
	}
	*tasks = batchSize(*tasks, app)

	// Observability: a trace file and/or an in-memory sink whose events
	// -summary renders. A nil trace is free; a live one never changes the
	// run (see internal/obs).
	var sinks []obs.Sink
	var mem *obs.MemorySink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		switch *traceFormat {
		case "jsonl":
			sinks = append(sinks, obs.NewJSONL(f))
		case "chrome":
			sinks = append(sinks, obs.NewChrome(f))
		default:
			fatal(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", *traceFormat))
		}
	}
	if *summary {
		mem = obs.NewMemory()
		sinks = append(sinks, mem)
	}
	var tr *obs.Trace
	if len(sinks) > 0 {
		tr = obs.New(obs.Multi(sinks...))
	}

	// Profiling hooks. The profiles and samplers observe the run; they
	// never feed anything back into it.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	stopSampler := func() {}
	if *runtimeMet {
		stopSampler = obs.StartRuntimeSampler(tr, 0)
		defer stopSampler()
	}

	fw := core.New()
	fw.Seed = *seed
	fw.Tasks = *tasks
	fw.Trace = tr
	var cfg dse.Config
	switch *dseMode {
	case "s2fa":
		cfg = dse.S2FAConfig(*seed)
	case "vanilla":
		cfg = dse.VanillaConfig(*seed)
	case "trivial":
		cfg = dse.TrivialStopConfig(*seed)
	default:
		fatal(fmt.Errorf("unknown -dse mode %q", *dseMode))
	}
	if *par > 0 {
		cfg.Engine = dse.EngineParallel
		cfg.Parallelism = *par
	}
	fw.DSE = &cfg

	// The file label prefixed to §3.3 diagnostics (file:line:col).
	fileLabel := *srcPath
	if fileLabel == "" {
		fileLabel = *appName + ".kdsl"
	}

	kspan := tr.Begin("kdsl", "compile", obs.Int("src_bytes", len(src)))
	cls, err := kdsl.CompileSource(src)
	kspan.End(obs.Bool("ok", err == nil))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compiled class %s (accelerator id %q, pattern %s)\n", cls.Name, cls.ID, cls.Pattern())
	if *dumpBC {
		fmt.Println(bytecode.DisassembleClass(cls))
	}

	if *explain {
		facts, err := absint.DiagnoseClass(cls)
		if err != nil {
			fatal(err)
		}
		fmt.Print(absint.Explain(facts, fileLabel))
		if len(facts.Violations()) > 0 {
			os.Exit(1)
		}
		// Kernels the C generator rejects get no analysis sections: the
		// §3.3 report above already covers them.
		if kernel, err := b2c.Compile(cls); err == nil {
			an := hls.Analyze(kernel)
			fmt.Print(dependReport(an.Depend(), fileLabel))
			fmt.Print(accessReport(an.Access(), fileLabel))
		}
		return
	}
	if *lintOnly {
		// §3.3 legality first: a violating kernel never reaches the C
		// generator, so its diagnostics come from the bytecode analyzer
		// with kdsl positions attached.
		facts, err := absint.DiagnoseClass(cls)
		if err != nil {
			fatal(err)
		}
		if vs := facts.Violations(); len(vs) > 0 {
			fmt.Printf("lint: %s: %d §3.3 violation(s)\n", cls.Name, len(vs))
			for _, v := range vs {
				fmt.Println(v.Sourced(fileLabel))
			}
			os.Exit(1)
		}
	}

	kernel, err := b2c.CompileTraced(cls, tr)
	if err != nil {
		// Surface any sourced §3.3 diagnostics alongside the compile error.
		if facts, derr := absint.DiagnoseClass(cls); derr == nil {
			for _, v := range facts.Violations() {
				fmt.Fprintln(os.Stderr, "s2fa: "+v.Sourced(fileLabel))
			}
		}
		fatal(err)
	}
	if *dumpC {
		fmt.Println("--- generated HLS C (pre-DSE) ---")
		fmt.Println(cir.Print(kernel))
	}
	if *lintOnly {
		fs := lint.Lint(kernel)
		if len(fs) == 0 {
			fmt.Printf("lint: %s: no findings\n", kernel.Name)
			return
		}
		fmt.Printf("lint: %s: %d error(s), %d warning(s)\n", kernel.Name, len(fs.Errors()), len(fs.Warnings()))
		fmt.Println(fs.String())
		if fs.HasErrors() {
			os.Exit(1)
		}
		return
	}

	build, err := fw.BuildFromClass(cls, kernel)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("design space: %d parameters, %.3g points\n", len(build.Space.Params), build.Space.Cardinality())
	fmt.Printf("DSE (%s): %d evaluations over %.0f virtual minutes, %d partitions, stopped: %s\n",
		*dseMode, build.Outcome.Evaluations, build.Outcome.TotalMinutes,
		len(build.Outcome.Partitions), build.Outcome.StopReason)
	for i, p := range build.Outcome.Partitions {
		fmt.Printf("  partition %d: %s\n", i, p.String())
	}
	fmt.Printf("best design: %v\n", build.Best)
	fmt.Printf("estimated kernel time for %d tasks: %.6fs\n", *tasks, build.Best.Seconds())
	// For built-in workloads, report the Fig. 4 comparison point: the
	// modeled single-thread JVM executor time and the resulting speedup.
	if app != nil {
		jvmSec, err := exp.JVMSecondsForEngine(app, *tasks, true, tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("JVM baseline (single-thread executor, jit): %.6fs\n", jvmSec)
		if s := build.Best.Seconds(); s > 0 {
			fmt.Printf("speedup over JVM: %.2fx\n", jvmSec/s)
		}
	}
	if *dumpBest {
		fmt.Println("--- chosen design (annotated HLS C) ---")
		fmt.Println(build.BestHLSSource())
	}
	// The sampler's final sample must land before the sinks close.
	stopSampler()
	if err := tr.Close(); err != nil {
		fatal(fmt.Errorf("writing trace: %w", err))
	}
	if mem != nil {
		fmt.Println("--- run summary ---")
		fmt.Print(report.Render(mem.Events(), report.Options{}))
	}
}

// batchSize resolves -tasks: an explicit batch wins; 0 means the
// built-in app's own batch, or 4096 for a -src kernel.
func batchSize(tasks int, app *apps.App) int {
	switch {
	case tasks != 0:
		return tasks
	case app != nil:
		return app.Tasks
	}
	return 4096
}

// dependReport renders the exact dependence analysis behind every
// legality verdict, II bound, and DSE collapse for the compiled kernel:
// the per-loop verdict table (witness access pairs carry kdsl positions)
// followed by "why would this factor be rejected?" guidance probing the
// most aggressive directives on each loop.
func dependReport(dep *depend.Analysis, fileLabel string) string {
	var b strings.Builder
	b.WriteString("\n")
	b.WriteString(dep.Table())
	fmt.Fprintf(&b, "  (witness positions are %s:line:col)\n", fileLabel)
	var notes []string
	for _, id := range dep.Order {
		notes = append(notes, dep.ExplainFactor(id, cir.LoopOpt{Parallel: 16, Pipeline: cir.PipeOn})...)
	}
	if len(notes) > 0 {
		b.WriteString("directive guidance (probing parallel 16 + pipeline on every loop):\n")
		for _, n := range notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return b.String()
}

// accessReport renders the static memory-access classification behind
// the DDR bandwidth model, the bank-port lane caps, and the
// access-driven DSE collapse: the per-loop access table (class, stride,
// footprint, reuse — site positions carry kdsl coordinates) followed by
// "why is this kernel memory-bound?" guidance naming gather buffers and
// port-capped loops.
func accessReport(acc *access.Analysis, fileLabel string) string {
	var b strings.Builder
	b.WriteString("\n")
	b.WriteString(acc.Table())
	fmt.Fprintf(&b, "  (site positions are %s:line:col)\n", fileLabel)
	if notes := acc.Guidance(); len(notes) > 0 {
		b.WriteString("why is this kernel memory-bound?\n")
		for _, n := range notes {
			fmt.Fprintf(&b, "  %s\n", n)
		}
	}
	return b.String()
}

// unknownAppMessage is the -app rejection text: the bad name plus every
// accepted workload, so the fix is on screen.
func unknownAppMessage(name string) string {
	return fmt.Sprintf("unknown app %q (valid workloads: %s)",
		name, strings.Join(apps.Names(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s2fa:", err)
	os.Exit(1)
}
