// Command perfbench is the s2fa performance benchmark: it runs one
// workload against the S2FA pipeline, checks every result, and prints
// the end-to-end metrics (or, traced, the per-layer metrics) named in
// BENCHMARK.json as a final JSON line.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash perfbench/run.sh --workload fig3-suite --seed 1 --seconds 28 --trace 0
//	bash perfbench/run.sh --workload blaze-offload --seed 3 --seconds 28 --trace 1
//	bash perfbench/run.sh -compare parent.jsonl change.jsonl
//
// A run generates its inputs from -seed (the program receives only the
// generated inputs), sets the program up at least five times and for
// about a second to time set-up, then runs ops closed-loop for -seconds
// and at least 100 ops, finishing the round in progress. It prints a
// record line (workload, seed, inputs_sha256, op count, failures and
// metrics) and then the result line {"correct", "attempted", "failed",
// "metrics"}. Appending runs' output to a file gives the JSONL that
// -compare reads.
//
// The end-to-end metrics are setup_s (median set-up), ops_per_s,
// op_ms_p50 and op_ms_p90 (Harrell-Davis estimates over every op),
// alloc_kb_per_op (heap allocated inside the ops) and rss_peak_mb
// (VmHWM).
//
// # Workloads
//
// The four workloads follow the system's two costs, the time from a
// kernel's source to a deployed accelerator and the speed of Spark tasks
// once Blaze offloads them, and each stresses layers the others bypass.
//
//   - fig3-suite (1 client): one app's exp.Suite.Result with the vanilla
//     DSE; a round is one whole Fig. 3 / Fig. 4 regeneration of the 12
//     apps on exp.NewSuite(seed+round). The paper's headline experiment:
//     DSE, Merlin, HLS estimation and the JVM baseline do the work;
//     compiling does almost none.
//   - build-fresh (1 client): BuildFromSource + Deploy of a distinct
//     generated kernel (8 kernel families) with the parallel DSE engine,
//     as `s2fa -par` runs on unseen kernels. The compile cache only
//     misses here, and only here does the parallel engine run.
//   - edit-compile (1 client): Framework.Compile through one compile
//     cache on an edit-loop stream, 90% Zipf(1.1) over a fixed hot set
//     of 76 sources and 10% never-seen kernels: the cache's hit path at
//     the median and the cold frontend + b2c path at p90, with no DSE.
//   - blaze-offload (1 client): MapAcc (ReduceAcc for the apps that
//     reduce) requests of 8/32/128 tasks (1/2/8 for S-W) over the 12
//     deployed apps, plus 10% to impure kernels the purity gate must
//     send to the JIT-compiled JVM: serialization, the cir evaluator,
//     the purity gate and the manager, with no compile and no DSE.
//
// Every workload runs its ops from a single client. On a shared host a
// second client measures the scheduler as much as the program: on a
// 2-core VM, four same-seed blaze-offload runs with two clients differed
// by up to 38% in ops_per_s, with one client by under 6%.
//
// # Checks
//
// Every op's output is checked, untimed, and a wrong output counts as a
// failed op: fig3-suite re-estimates each best design and compares it
// with the served report; build-fresh runs 16 tasks of each deployed
// kernel through Blaze against the generator's reference semantics;
// edit-compile compares each served kernel with an uncached compile of
// its source; blaze-offload compares each request bit for bit with the
// jvmsim interpreter (apps) or the generator's reference (impure
// kernels). A traced run must also reproduce the untraced run's DSE
// outcomes op for op.
//
// # Layers
//
// A traced run (-trace 1) runs half the time untraced, then the same ops
// on a fresh set-up with spans around every call the benchmark makes
// into a package, the program's own obs.Trace attached where the program
// accepts one, and replays that time single layers on a sample of the
// traced ops. Which end-to-end metric each layer metric should move:
//
//	layer metrics                                    should move           on
//	hls.estimate_us_p50/p90, merlin.annotate_us_p50  op_ms_p50, ops_per_s  fig3-suite, build-fresh
//	dse.run_ms_p50, dse.self_ms_p50, dse.*_pruned,   op_ms_p50             fig3-suite, build-fresh
//	  hls.estimations, hls.memo_hit_frac
//	dse.par.*                                        ops_per_s             build-fresh
//	kdsl/bytecode/absint/b2c/lint/depend/access      op_ms_p90, ops_per_s  edit-compile (build-fresh <3%)
//	ccache.hit_frac, ccache.hit_us_p50/miss_us_p50   op_ms_p50, op_ms_p90  edit-compile
//	core.deploy_us_p50, space.identify_us_p50        op_ms_p50             build-fresh
//	jvmsim.baseline_ms_per_app                       op_ms_p50             fig3-suite
//	jvmsim.fallback_us_per_task                      op_ms_p90             blaze-offload
//	blaze.*_per_task, cir.exec_us_per_task           ops_per_s, op_ms_p50  blaze-offload
//	exp.app_ms_p50.<App>, blaze.req_ms_p50.<App>     per-app attribution   fig3-suite, blaze-offload
//
// A layer a workload never calls reads 0. unattributed_frac is the share
// of traced op time outside the benchmark's top-level spans,
// trace_overhead_pct how much slower the traced ops ran. The quality
// metrics (dse.vmin_per_kernel, design.obj_geomean,
// design.speedup_geomean, exp.dse_time_saving_pct, exp.qor_vs_vanilla)
// repeat exactly for a seed, so a speed-up that buys worse designs shows.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

var workloads = []*workload{fig3Workload, buildWorkload, editWorkload, blazeWorkload}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pinnedJSON records each workload's inputs_sha256 at the pinned seed.
// The generators live outside the benchmark's directory, so a change to
// them must not silently change what the benchmark measures: a mismatch
// aborts the run.
//
//go:embed inputs.json
var pinnedJSON []byte

type pinned struct {
	Seed   int64             `json:"seed"`
	Digest map[string]string `json:"inputs_sha256"`
}

func checkPinned(w *workload) error {
	var p pinned
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return fmt.Errorf("parsing inputs.json: %w", err)
	}
	inst, err := w.gen(p.Seed)
	if err != nil {
		return err
	}
	if got, want := inst.digest(), p.Digest[w.name]; got != want {
		return fmt.Errorf("%s inputs at seed %d hash to %s, inputs.json pins %s: the input generators changed",
			w.name, p.Seed, got, want)
	}
	return nil
}

// record is the full account of one run, printed before the result
// line; -compare reads these.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Inputs    string            `json:"inputs_sha256"`
	Ops       int               `json:"ops"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is the final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: fig3-suite | build-fresh | edit-compile | blaze-offload")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "how long to measure")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		compare = flag.Bool("compare", false, "compare two JSONL files of runs: -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two JSONL files"))
		}
		if err := compareFiles(os.Stdout, sp, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	w := workloadNamed(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown -workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace takes 0 or 1"))
	}
	if err := checkPinned(w); err != nil {
		fatal(err)
	}
	rep, err := runWorkload(w, runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fatal(err)
	}
	ms, err := sp.selectMetrics(rep.metrics, *trace == 1)
	if err != nil {
		fatal(err)
	}
	rec := record{Workload: w.name, Seed: *seed, Trace: *trace == 1, Inputs: rep.digest, Ops: rep.ops,
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Failures: rep.failures, Metrics: ms}
	for _, v := range []any{rec, result{rec.Correct, rec.Attempted, rec.Failed, ms}} {
		line, err := json.Marshal(v)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
