package main

import (
	"crypto/sha256"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdslgen"
	"s2fa/internal/space"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tinyOps is each workload's op count in tests: one round, or a few ops.
var tinyOps = map[string]int{"fig3-suite": 12, "build-fresh": 3, "edit-compile": 300, "blaze-offload": 40}

// exercised names layer metrics each workload must measure as nonzero,
// so a broken span or replay shows.
var exercised = map[string][]string{
	"fig3-suite":    {"dse.run_ms_p50", "hls.estimate_us_p50", "merlin.annotate_us_p50", "jvmsim.baseline_ms_per_app", "exp.app_ms_p50.S-W", "design.speedup_geomean", "unattributed_frac"},
	"build-fresh":   {"dse.run_ms_p50", "core.deploy_us_p50", "b2c.compile_us_p50", "kdsl.compile_us_p50", "hls.estimate_us_p50", "dse.par.queue_wait_ms"},
	"edit-compile":  {"ccache.hit_frac", "ccache.hit_us_p50", "ccache.miss_us_p50", "kdsl.compile_us_p50", "b2c.compile_us_p50", "lint.gate_us_p50"},
	"blaze-offload": {"cir.exec_us_per_task", "blaze.encode_us_per_task", "jvmsim.fallback_us_per_task", "blaze.req_ms_p50.KNN", "blaze.bytes_per_task"},
}

func TestSpecDeclaresTheCodesWorkloads(t *testing.T) {
	sp := testSpec(t)
	var declared, coded []string
	for _, w := range sp.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		coded = append(coded, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(coded, ",") {
		t.Errorf("BENCHMARK.json declares %v, the code runs %v", declared, coded)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", m.Name, m.Bound)
		}
	}
	if _, ok := sp.lookup("setup_s"); !ok {
		t.Error("setup_s is not declared")
	}
}

func TestPinnedInputDigests(t *testing.T) {
	for _, w := range workloads {
		if err := checkPinned(w); err != nil {
			t.Error(err)
		}
	}
}

func TestParsePointInvertsKey(t *testing.T) {
	pt := space.Point{"L1.parallel": 4, "L0.pipeline": 2, "in_bw": 512}
	got, ok := parsePoint(pt.Key())
	if !ok || got.Key() != pt.Key() {
		t.Errorf("parsePoint(%q) = %v, %v", pt.Key(), got, ok)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload with a tiny op
// count, untraced and traced, and checks that each run is correct and
// prints every metric BENCHMARK.json declares for it.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	sp := testSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rep, err := runWorkload(w, runOpts{seed: 2, trace: traced, maxOps: tinyOps[w.name]})
				if err != nil {
					t.Fatal(err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, rep.failed, rep.attempted, rep.failures)
				}
				ms, err := sp.selectMetrics(rep.metrics, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				decl := sp.EndToEnd
				if traced {
					decl = sp.PerLayer
				}
				if len(ms) != len(decl) {
					t.Errorf("traced=%v: %d metrics printed, %d declared", traced, len(ms), len(decl))
				}
				for name := range ms {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q is malformed", name)
					}
				}
				if traced {
					for _, name := range exercised[w.name] {
						if ms[name].Value == 0 {
							t.Errorf("layer metric %s reads 0", name)
						}
					}
					// The benchmark's spans must account for the traced op time.
					if u := ms["unattributed_frac"].Value; u > 0.10 {
						t.Errorf("unattributed_frac = %v, want at most 0.10", u)
					}
				}
			}
		})
	}
}

// failsOnWrongReference runs inst after corrupt has broken one of its
// references, and checks the run completes with the op counted failed.
func failsOnWrongReference(t *testing.T, w *workload, inst instance, corrupt func()) {
	t.Helper()
	if err := inst.prepare(); err != nil {
		t.Fatal(err)
	}
	corrupt()
	rep, err := runInstance(w, inst, runOpts{seed: 1, maxOps: tinyOps[w.name]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 {
		t.Fatalf("a wrong reference went unnoticed (%d ops)", rep.attempted)
	}
	t.Logf("%d of %d ops failed, first: %s", rep.failed, rep.attempted, rep.failures[0])
}

func TestWrongReferenceCountsAsFailure(t *testing.T) {
	t.Run("edit-compile", func(t *testing.T) {
		inst, err := genEdit(1)
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*editInst)
		failsOnWrongReference(t, editWorkload, in, func() {
			// The hottest source: nearly every run hits it.
			in.want[in.hot[0]] = sha256.Sum256([]byte("not the kernel"))
		})
	})
	t.Run("blaze-offload", func(t *testing.T) {
		inst, err := genBlaze(1)
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*blazeInst)
		failsOnWrongReference(t, blazeWorkload, in, func() {
			// Every round sends one of the first app's two smallest batches.
			for _, b := range in.pure[0][0] {
				b.want[0] = jvmsim.Scalar(cir.IntVal(cir.Int, 12345))
			}
		})
	})
	t.Run("build-fresh", func(t *testing.T) {
		inst, err := genBuild(1)
		if err != nil {
			t.Fatal(err)
		}
		in := inst.(*buildInst)
		failsOnWrongReference(t, buildWorkload, in, func() {
			// Reference semantics with subtraction computed as addition,
			// on the first kernel whose checked outputs it changes.
			first := in.pool[0]
			for _, k := range in.pool {
				bad := k.WithEvalDefect()
				in.pool[0] = bad
				if differs(k, bad, in.checkBatch(0)) {
					return
				}
			}
			in.pool[0] = first
			t.Fatal("no generated kernel is sensitive to the injected defect")
		})
	})
}

func differs(k, bad *kdslgen.Kernel, batch [][]kdslgen.FieldVal) bool {
	for _, task := range batch {
		a, errA := k.Eval(copyFields(task))
		b, errB := bad.Eval(copyFields(task))
		if errA != nil || errB != nil || !sameVal(fromField(a), fromField(b)) {
			return true
		}
	}
	return false
}

func TestEditHotSetKeepsAppsAtFixedRanks(t *testing.T) {
	inst, err := genEdit(3)
	if err != nil {
		t.Fatal(err)
	}
	hot := inst.(*editInst).hot
	for i, a := range apps.All() {
		if hot[6*i+1] != a.Source {
			t.Errorf("rank %d is not %s", 6*i+1, a.Name)
		}
	}
}
