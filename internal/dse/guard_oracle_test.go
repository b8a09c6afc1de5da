package dse

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

var updateCounters = flag.Bool("update", false, "rewrite testdata/s2fa_counters.golden")

// counterSeeds are the seeds the guard goldens and oracle cover.
var counterSeeds = []int64{1, 7, 42}

// s2faCounterTable runs the full S2FA search on every workload and seed
// and tabulates what the guard did: evaluations, the four prune
// counters, fresh evaluations (those the guard did not serve), the
// distinct points the base estimator saw (partition training included),
// and a digest of the trajectory and best point.
func s2faCounterTable(t *testing.T) string {
	t.Helper()
	dev := fpga.VU9P()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s %5s %6s %6s %6s %5s %5s %5s %s\n",
		"app", "seed", "evals", "static", "depend", "access", "range", "fresh", "hls", "trajectory")
	var evals, static, dep, acc, rng int
	for _, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range counterSeeds {
			sp := space.Identify(k)
			base := NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})
			estimated := map[string]bool{}
			eval := func(pt space.Point) tuner.Result {
				estimated[pt.Key()] = true
				return base(pt)
			}
			o := Run(k, sp, eval, S2FAConfig(seed))
			h := sha256.New()
			fmt.Fprintf(h, "best=%s/%b\n", o.Best.Point.Key(), math.Float64bits(o.Best.Objective))
			for _, p := range o.Trajectory {
				fmt.Fprintf(h, "%b %b\n", math.Float64bits(p.Minutes), math.Float64bits(p.Objective))
			}
			fresh := o.Evaluations - o.StaticallyPruned - o.DependPruned - o.AccessPruned - o.RangeCollapsed
			fmt.Fprintf(&b, "%-10s %4d %5d %6d %6d %6d %5d %5d %5d %x\n",
				a.Name, seed, o.Evaluations, o.StaticallyPruned, o.DependPruned,
				o.AccessPruned, o.RangeCollapsed, fresh, len(estimated), h.Sum(nil)[:8])
			evals += o.Evaluations
			static += o.StaticallyPruned
			dep += o.DependPruned
			acc += o.AccessPruned
			rng += o.RangeCollapsed
		}
	}
	fmt.Fprintf(&b, "total: evals=%d static=%d depend=%d access=%d range=%d\n", evals, static, dep, acc, rng)
	return b.String()
}

// TestGuardCounterGolden pins, per workload and seed, every S2FA run's
// evaluation count, prune counters, fresh estimations, and trajectory.
// A change to any guard rule that moves a row must be deliberate: rerun
// with -update and account for every changed row.
func TestGuardCounterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x seed sweep")
	}
	got := s2faCounterTable(t)
	const path = "testdata/s2fa_counters.golden"
	if *updateCounters {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("S2FA counter table drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// oracleKernel is one kernel the guard oracle explores.
type oracleKernel struct {
	name  string
	k     *cir.Kernel
	tasks int64
}

// oracleKernels returns every workload plus a seeded sample of
// generated kernels.
func oracleKernels(t *testing.T) []oracleKernel {
	t.Helper()
	var ks []oracleKernel
	for _, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, oracleKernel{a.Name, k, int64(a.Tasks)})
	}
	for _, g := range kdslgen.Generate(12, 6) {
		cls, err := kdsl.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		k, err := b2c.Compile(cls)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		ks = append(ks, oracleKernel{g.Name, k, 512})
	}
	return ks
}

// TestGuardOracle checks the guard point by point against the
// estimator over full S2FA searches: every result a collapse rule serves
// on first sight must equal a fresh, uncached evaluation of that point
// (objective, feasibility, synthesis minutes, and the whole HLS report),
// and every point a reject rule turns away must be one the evaluator
// rejects as infeasible too.
func TestGuardOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x seed sweep")
	}
	dev := fpga.VU9P()
	for _, ok := range oracleKernels(t) {
		for _, seed := range counterSeeds {
			sp := space.Identify(ok.k)
			cfg := S2FAConfig(seed)
			tally := &Outcome{}
			guard := newGuard(pruneRules(hls.Analyze(ok.k), sp, dev), estimate(NewEvaluator(ok.k, sp, dev, ok.tasks, hls.Options{}), nil, nil), space.NewTable(sp), tally, nil)
			pure := NewEvaluator(ok.k, sp, dev, ok.tasks, hls.Options{})
			served, rejected := 0, 0
			eval := func(pt space.Point) tuner.Result {
				before := *tally
				r := guard(pt)
				switch {
				case tally.StaticallyPruned > before.StaticallyPruned:
					rejected++
					if pure(pt).Feasible {
						t.Errorf("%s seed %d: static rule rejected feasible point %s", ok.name, seed, pt.Key())
					}
				case tally.DependPruned > before.DependPruned, tally.AccessPruned > before.AccessPruned,
					tally.RangeCollapsed > before.RangeCollapsed:
					served++
					fresh := pure(pt)
					if r.Objective != fresh.Objective || r.Feasible != fresh.Feasible ||
						r.Minutes != fresh.Minutes || !reflect.DeepEqual(r.Meta, fresh.Meta) {
						t.Errorf("%s seed %d: guard served %s\n  served %v (objective %g, %g min)\n  fresh  %v (objective %g, %g min)",
							ok.name, seed, pt.Key(), r.Meta, r.Objective, r.Minutes, fresh.Meta, fresh.Objective, fresh.Minutes)
					}
				}
				return r
			}
			cfg.Prune = false
			Run(ok.k, sp, eval, cfg)
			t.Logf("%s seed %d: %d served, %d rejected", ok.name, seed, served, rejected)
		}
	}
}
