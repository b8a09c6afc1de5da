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
	"errors"
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

func main() { os.Exit(run(os.Args[1:])) }

// options are the parsed command-line flags.
type options struct {
	srcPath, appName, dseMode string
	par, tasks                int
	seed                      int64
	lintOnly, explain         bool
	dumpBC, dumpC, dumpBest   bool
	tracePath, traceFormat    string
	summary                   bool
	cpuProfile, memProfile    string
	runtimeMet                bool
}

// run is the whole command; it returns the exit status (0 ok, 1 lint
// errors, §3.3 violations or a failed stage, 2 flag misuse). Every exit
// from the pipeline, -explain and -lint included, goes through the same
// teardown, so -trace, -summary and the profiles are written whatever
// the status.
func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("s2fa", flag.ContinueOnError)
	fs.StringVar(&o.srcPath, "src", "", "path to a kernel class source file")
	fs.StringVar(&o.appName, "app", "", "built-in workload name ("+strings.Join(apps.Names(), ", ")+")")
	fs.StringVar(&o.dseMode, "dse", "s2fa", "exploration mode: s2fa | vanilla | trivial")
	fs.IntVar(&o.par, "par", 0, "run DSE evaluations on N goroutines (0 = sequential reference engine; results are byte-identical either way)")
	fs.IntVar(&o.tasks, "tasks", 0, "batch size the design is optimized for (0 = the app's own batch, 4096 for -src)")
	fs.Int64Var(&o.seed, "seed", 1, "random seed (reproducible runs)")
	fs.BoolVar(&o.lintOnly, "lint", false, "run the static verifier on the generated kernel, print findings, and exit (status 1 on errors)")
	fs.BoolVar(&o.explain, "explain", false, "print the abstract interpreter's fact report (§3.3 violations with kdsl positions, purity, value ranges) and exit (status 1 on violations)")
	fs.BoolVar(&o.dumpBC, "dump-bytecode", false, "print the compiled bytecode")
	fs.BoolVar(&o.dumpC, "dump-c", false, "print the generated HLS C before DSE")
	fs.BoolVar(&o.dumpBest, "dump-best", false, "print the chosen design's annotated HLS C")
	fs.StringVar(&o.tracePath, "trace", "", "write pipeline + DSE trace events to this file")
	fs.StringVar(&o.traceFormat, "trace-format", "jsonl", "trace file format: jsonl | chrome (load the latter in chrome://tracing or Perfetto)")
	fs.BoolVar(&o.summary, "summary", false, "print the s2fa-report run explanation (stage waterfall, slowest HLS estimations, prune attribution, bandit arms, entropy sparkline, counters) as plain text after the run")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file (DSE pool goroutines carry s2fa_pool_worker/s2fa_kernel/s2fa_partition pprof labels)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.BoolVar(&o.runtimeMet, "runtime-metrics", false, "sample Go runtime metrics (GC pause, heap, allocs) as go.* gauges into the run's trace (-trace / -summary) while the run executes")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if (o.srcPath == "") == (o.appName == "") {
		fmt.Fprintln(os.Stderr, "specify exactly one of -src or -app")
		fs.Usage()
		return 2
	}

	var src string
	app := apps.Get(o.appName)
	switch {
	case o.srcPath != "":
		data, err := os.ReadFile(o.srcPath)
		if err != nil {
			return fail(err)
		}
		src = string(data)
	case app == nil:
		fmt.Fprintln(os.Stderr, "s2fa: "+unknownAppMessage(o.appName))
		return 2
	default:
		src = app.Source
	}
	o.tasks = batchSize(o.tasks, app)

	// Observability: a trace file and/or an in-memory sink whose events
	// -summary renders. A nil trace is free; a live one never changes the
	// run (see internal/obs).
	var sinks []obs.Sink
	var mem *obs.MemorySink
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		switch o.traceFormat {
		case "jsonl":
			sinks = append(sinks, obs.NewJSONL(f))
		case "chrome":
			sinks = append(sinks, obs.NewChrome(f))
		default:
			return fail(fmt.Errorf("unknown -trace-format %q (want jsonl or chrome)", o.traceFormat))
		}
	}
	if o.summary {
		mem = obs.NewMemory()
		sinks = append(sinks, mem)
	}
	var tr *obs.Trace
	if len(sinks) > 0 {
		tr = obs.New(obs.Multi(sinks...))
	}

	// Profiling hooks. The profiles and samplers observe the run; they
	// never feed anything back into it.
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
	}
	stopSampler := func() {}
	if o.runtimeMet {
		stopSampler = obs.StartRuntimeSampler(tr, 0)
	}

	code := pipeline(o, src, app, tr)

	// The sampler's final sample must land before the sinks close.
	stopSampler()
	if err := tr.Close(); err != nil {
		code = fail(fmt.Errorf("writing trace: %w", err))
	}
	if mem != nil {
		fmt.Println("--- run summary ---")
		fmt.Print(report.Render(mem.Events(), report.Options{}))
	}
	if o.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		if err := writeHeapProfile(o.memProfile); err != nil {
			code = fail(err)
		}
	}
	return code
}

// pipeline compiles the kernel and runs what the flags select: the
// -explain report, the -lint findings, or the full DSE build. It prints
// as it goes and returns the exit status.
func pipeline(o options, src string, app *apps.App, tr *obs.Trace) int {
	fw := core.New()
	fw.Seed = o.seed
	fw.Tasks = o.tasks
	fw.Trace = tr
	var cfg dse.Config
	switch o.dseMode {
	case "s2fa":
		cfg = dse.S2FAConfig(o.seed)
	case "vanilla":
		cfg = dse.VanillaConfig(o.seed)
	case "trivial":
		cfg = dse.TrivialStopConfig(o.seed)
	default:
		return fail(fmt.Errorf("unknown -dse mode %q", o.dseMode))
	}
	if o.par > 0 {
		cfg.Engine = dse.EngineParallel
		cfg.Parallelism = o.par
	}
	fw.DSE = &cfg

	// The file label prefixed to §3.3 diagnostics (file:line:col).
	fileLabel := o.srcPath
	if fileLabel == "" {
		fileLabel = o.appName + ".kdsl"
	}

	kspan := tr.Begin("kdsl", "compile", obs.Int("src_bytes", len(src)))
	cls, err := kdsl.CompileSource(src)
	kspan.End(obs.Bool("ok", err == nil))
	if err != nil {
		return fail(err)
	}
	fmt.Printf("compiled class %s (accelerator id %q, pattern %s)\n", cls.Name, cls.ID, cls.Pattern())
	if o.dumpBC {
		fmt.Println(bytecode.DisassembleClass(cls))
	}

	if o.explain {
		facts, err := absint.DiagnoseClass(cls)
		if err != nil {
			return fail(err)
		}
		fmt.Print(absint.Explain(facts, fileLabel))
		if len(facts.Violations()) > 0 {
			return 1
		}
		// Kernels the C generator rejects get no analysis sections: the
		// §3.3 report above already covers them.
		if kernel, err := b2c.Compile(cls); err == nil {
			an := hls.Analyze(kernel)
			fmt.Print(dependReport(an.Depend(), fileLabel))
			fmt.Print(accessReport(an.Access(), fileLabel))
		}
		return 0
	}
	if o.lintOnly {
		// §3.3 legality first: a violating kernel never reaches the C
		// generator, so its diagnostics come from the bytecode analyzer
		// with kdsl positions attached.
		facts, err := absint.DiagnoseClass(cls)
		if err != nil {
			return fail(err)
		}
		if vs := facts.Violations(); len(vs) > 0 {
			fmt.Printf("lint: %s: %d §3.3 violation(s)\n", cls.Name, len(vs))
			for _, v := range vs {
				fmt.Println(v.Sourced(fileLabel))
			}
			return 1
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
		return fail(err)
	}
	if o.dumpC {
		fmt.Println("--- generated HLS C (pre-DSE) ---")
		fmt.Println(cir.Print(kernel))
	}
	if o.lintOnly {
		fs := lint.Lint(kernel)
		if len(fs) == 0 {
			fmt.Printf("lint: %s: no findings\n", kernel.Name)
			return 0
		}
		fmt.Printf("lint: %s: %d error(s), %d warning(s)\n", kernel.Name, len(fs.Errors()), len(fs.Warnings()))
		fmt.Println(fs.String())
		if fs.HasErrors() {
			return 1
		}
		return 0
	}

	build, err := fw.BuildFromClass(cls, kernel)
	if err != nil {
		return fail(err)
	}
	fmt.Printf("design space: %d parameters, %.3g points\n", len(build.Space.Params), build.Space.Cardinality())
	fmt.Printf("DSE (%s): %d evaluations over %.0f virtual minutes, %d partitions, stopped: %s\n",
		o.dseMode, build.Outcome.Evaluations, build.Outcome.TotalMinutes,
		len(build.Outcome.Partitions), build.Outcome.StopReason)
	for i, p := range build.Outcome.Partitions {
		fmt.Printf("  partition %d: %s\n", i, p.String())
	}
	fmt.Printf("best design: %v\n", build.Best)
	fmt.Printf("estimated kernel time for %d tasks: %.6fs\n", o.tasks, build.Best.Seconds())
	// For built-in workloads, report the Fig. 4 comparison point: the
	// modeled single-thread JVM executor time and the resulting speedup.
	if app != nil {
		jvmSec, err := exp.JVMSecondsForEngine(app, o.tasks, true, tr)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("JVM baseline (single-thread executor, jit): %.6fs\n", jvmSec)
		if s := build.Best.Seconds(); s > 0 {
			fmt.Printf("speedup over JVM: %.2fx\n", jvmSec/s)
		}
	}
	if o.dumpBest {
		fmt.Println("--- chosen design (annotated HLS C) ---")
		fmt.Println(build.BestHLSSource())
	}
	return 0
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

// fail reports err and returns exit status 1.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "s2fa:", err)
	return 1
}

// writeHeapProfile writes a heap profile, taken after a GC, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
