// Command s2fa-bench regenerates the paper's evaluation (§5): the DSE
// trajectory comparison of Fig. 3, the resource/frequency Table 2, the
// speedup comparison of Fig. 4, the per-application design-space summary
// (Table 1), and the stopping-criteria ablation. All runs use a virtual
// synthesis clock, so the full evaluation completes in seconds.
//
// Usage:
//
//	s2fa-bench                  # everything
//	s2fa-bench -exp fig4        # one experiment
//	s2fa-bench -seed 3          # different (still deterministic) run
//	s2fa-bench -par 8           # concurrent DSE engine (same output, faster)
//	s2fa-bench -bench BENCH_pr4.json        # record the performance baseline
//	s2fa-bench -bench-check BENCH_pr4.json  # re-measure, fail on regression
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"s2fa/internal/dse"
	"s2fa/internal/exp"
	"s2fa/internal/obs"
)

func main() {
	var (
		which      = flag.String("exp", "all", "experiment: fig3 | fig4 | table1 | table2 | ablation | components | all")
		seed       = flag.Int64("seed", 1, "random seed (reproducible)")
		par        = flag.Int("par", 0, "run DSE evaluations on N goroutines (0 = sequential reference engine; results are byte-identical either way)")
		benchOut   = flag.String("bench", "", "measure the performance baseline (Fig. 3 on both engines + stage micros) and write it to this JSON file")
		benchCheck = flag.String("bench-check", "", "re-measure the baseline and fail on regression against this committed JSON file")
		cores      = flag.Bool("cores", false, "with -bench/-bench-check: sweep the parallel DSE pool from 1 to GOMAXPROCS and record the per-core scaling curve in the JSON report")
		compileN   = flag.Int("compile", 0, "measure compile throughput: N passes over the whole kernel suite through frontend + b2c, cold vs served from the compile cache (kernels/sec)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (DSE pool goroutines carry s2fa_pool_worker/s2fa_kernel/s2fa_partition pprof labels)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		runtimeMet = flag.String("runtime-metrics", "", "sample Go runtime metrics (GC pause, heap, allocs) while the benchmarks run and write the go.* gauge samples to this file as a JSONL trace (render it with s2fa-report)")
	)
	flag.Parse()

	// Profiling hooks mirror cmd/s2fa: they observe the benchmark
	// process and never feed anything back into the measured runs.
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
	if *runtimeMet != "" {
		f, err := os.Create(*runtimeMet)
		if err != nil {
			fatal(err)
		}
		tr := obs.New(obs.NewJSONL(f))
		stop := obs.StartRuntimeSampler(tr, 0)
		defer func() {
			// The final sample must land before the trace is flushed.
			stop()
			err := tr.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(fmt.Errorf("writing runtime metrics: %w", err))
			}
		}()
	}

	if *compileN > 0 {
		if err := runCompileBench(*compileN); err != nil {
			fatal(err)
		}
		return
	}

	if *benchOut != "" || *benchCheck != "" {
		var err error
		if *benchOut != "" {
			err = writeBench(*benchOut, *seed, *cores)
		} else {
			err = checkBench(*benchCheck, *seed, *cores)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "s2fa-bench:", err)
			os.Exit(1)
		}
		return
	}

	s := exp.NewSuite(*seed)
	if *par > 0 {
		s.Engine = dse.EngineParallel
		s.Parallelism = *par
	}
	run := func(name string, f func() (string, error)) {
		if *which != "all" && *which != name {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "s2fa-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	run("table1", func() (string, error) {
		rows, err := exp.Table1(s)
		if err != nil {
			return "", err
		}
		return exp.RenderTable1(rows), nil
	})
	run("fig3", func() (string, error) {
		r, err := exp.Fig3(s, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("table2", func() (string, error) {
		rows, err := exp.Table2(s)
		if err != nil {
			return "", err
		}
		return exp.RenderTable2(rows), nil
	})
	run("fig4", func() (string, error) {
		r, err := exp.Fig4(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("ablation", func() (string, error) {
		r, err := exp.StoppingAblation(s, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
	run("components", func() (string, error) {
		r, err := exp.ComponentAblation(s, nil)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s2fa-bench:", err)
	os.Exit(1)
}
