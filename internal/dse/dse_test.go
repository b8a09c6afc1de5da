package dse

import (
	"math"
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

func kmeansSetup(t *testing.T) (*space.Space, tuner.Evaluator) {
	t.Helper()
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	return sp, NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
}

// TestPartitionsDisjointAndCovering samples random points and checks each
// falls in exactly one partition — the property the paper uses to argue
// partitioning preserves optimality (§4.3.1).
func TestPartitionsDisjointAndCovering(t *testing.T) {
	a := apps.Get("S-W")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	eval := NewEvaluator(k, sp, fpga.VU9P(), 1024, hls.Options{})
	parts := BuildPartitions(sp, k, eval, DefaultPartitionConfig(), 3)
	if len(parts) < 3 {
		t.Fatalf("only %d partitions", len(parts))
	}
	contains := func(p Partition, pt space.Point) bool {
		sub := p.Space(sp)
		for i := range sub.Params {
			prm := &sub.Params[i]
			if !prm.Contains(pt[prm.Name]) {
				return false
			}
		}
		return true
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 300; i++ {
		pt := sp.RandomPoint(rng)
		n := 0
		for _, p := range parts {
			if contains(p, pt) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("point in %d partitions (must be exactly 1): %v", n, pt)
		}
	}
}

// TestPartitionsSplitOnTaskSchedule asserts the mandatory RDD-semantics
// rule: partitions separate the task loop's pipeline modes.
func TestPartitionsSplitOnTaskSchedule(t *testing.T) {
	sp, eval := kmeansSetup(t)
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	parts := BuildPartitions(sp, k, eval, DefaultPartitionConfig(), 1)
	modes := map[int]bool{}
	for _, p := range parts {
		prm := p.Space(sp).Param(k.TaskLoopID + ".pipeline")
		if prm.Size() != 1 {
			t.Fatalf("partition %q does not pin the task pipeline mode", p.String())
		}
		modes[prm.ValueAt(0)] = true
	}
	if len(modes) != 3 {
		t.Errorf("task pipeline modes covered = %v, want all 3", modes)
	}
}

func TestEntropyStopperConverges(t *testing.T) {
	es := NewEntropyStopper()
	st := es.Clone().(*EntropyStopper)
	pt := space.Point{"a": 1, "b": 2, "c": 3}
	stopped := false
	for i := 0; i < 200; i++ {
		// No improvements: a dead partition must eventually stop.
		mut := pt.Clone()
		mut["a"] = i % 5
		if st.Observe(tuner.Result{Point: mut, Objective: 100, Feasible: true}, false) {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Error("entropy criterion never fired on a stagnant partition")
	}
}

func TestEntropyStopperStaysAliveWhileImproving(t *testing.T) {
	st := NewEntropyStopper().Clone().(*EntropyStopper)
	pt := space.Point{"a": 1, "b": 2}
	obj := 1000.0
	for i := 0; i < 60; i++ {
		obj *= 0.9 // strong steady improvement
		mut := pt.Clone()
		mut["a"] = i
		if st.Observe(tuner.Result{Point: mut, Objective: obj, Feasible: true}, true) {
			t.Fatalf("stopped at iteration %d despite steady improvement", i)
		}
	}
}

func TestTrivialStopper(t *testing.T) {
	ts := NewTrivialStopper().Clone().(*TrivialStopper)
	pt := space.Point{"a": 1}
	// Improvements keep it alive.
	obj := 100.0
	for i := 0; i < 30; i++ {
		obj -= 1
		if ts.Observe(tuner.Result{Point: pt, Objective: obj, Feasible: true}, true) {
			t.Fatalf("stopped during improvements at %d", i)
		}
	}
	// Then 10 misses kill it (after the exploration floor).
	stopped := false
	for i := 0; i < 40; i++ {
		if ts.Observe(tuner.Result{Point: pt, Objective: 999, Feasible: true}, false) {
			stopped = true
			break
		}
	}
	if !stopped {
		t.Error("trivial criterion never fired")
	}
}

func TestNeverStopper(t *testing.T) {
	ns := NeverStopper{}
	for i := 0; i < 100; i++ {
		if ns.Observe(tuner.Result{}, false) {
			t.Fatal("NeverStopper stopped")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sp, _ := kmeansSetup(t)
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	run := func() *Outcome {
		eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
		return Run(k, sp, eval, S2FAConfig(42))
	}
	o1, o2 := run(), run()
	if o1.Best.Objective != o2.Best.Objective ||
		o1.Evaluations != o2.Evaluations ||
		math.Abs(o1.TotalMinutes-o2.TotalMinutes) > 1e-9 {
		t.Errorf("same seed produced different outcomes: %s vs %s", o1.Summary(), o2.Summary())
	}
}

func TestRunRespectsTimeLimit(t *testing.T) {
	sp, eval := kmeansSetup(t)
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	cfg := VanillaConfig(5)
	cfg.TimeLimitMinutes = 60
	out := Run(k, sp, eval, cfg)
	if out.TotalMinutes > 60 {
		t.Errorf("run overshot the limit: %.1f min", out.TotalMinutes)
	}
}

func TestTrajectoryMonotone(t *testing.T) {
	sp, eval := kmeansSetup(t)
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	out := Run(k, sp, eval, S2FAConfig(8))
	prevT, prevObj := -1.0, math.Inf(1)
	for _, tp := range out.Trajectory {
		if tp.Minutes < prevT {
			t.Errorf("trajectory time went backwards: %v after %v", tp.Minutes, prevT)
		}
		if tp.Objective >= prevObj {
			t.Errorf("trajectory objective did not improve: %v after %v", tp.Objective, prevObj)
		}
		prevT, prevObj = tp.Minutes, tp.Objective
	}
	if out.BestAt(out.TotalMinutes+1) != out.Best.Objective {
		t.Error("BestAt(end) != Best")
	}
	if !math.IsInf(out.BestAt(-1), 1) {
		t.Error("BestAt before start should be +Inf")
	}
}

// TestEvaluatorCachesSynthesis pins the memo of Run's evaluator chain,
// the prune guard's identity row, on the sequential path: the first
// evaluation of a point estimates it and charges its synthesis minutes,
// a repeat charges none, serves the same objective without running the
// estimator, and is traced as a cache hit.
func TestEvaluatorCachesSynthesis(t *testing.T) {
	sp, eval := kmeansSetup(t)
	calls := 0
	counted := func(pt space.Point) tuner.Result {
		calls++
		return eval(pt)
	}
	tr := obs.New(discardSink{})
	chain := newGuard(nil, estimate(counted, nil, tr), space.NewTable(sp), &Outcome{}, tr)
	pt := sp.AreaSeed()
	r1 := chain(pt)
	r2 := chain(pt)
	if r1.Minutes <= 0 {
		t.Error("first evaluation charged no synthesis time")
	}
	if r2.Minutes != 0 {
		t.Errorf("cached evaluation charged %v minutes", r2.Minutes)
	}
	if r1.Objective != r2.Objective {
		t.Error("cache changed the objective")
	}
	if c := tr.Counters(); calls != 1 || c["hls.estimations"] != 1 || c["hls.cache_hits"] != 1 {
		t.Errorf("estimator calls %d, hls.estimations %d, hls.cache_hits %d; want 1 each",
			calls, c["hls.estimations"], c["hls.cache_hits"])
	}
}

func TestEvaluatorPenaltyGradient(t *testing.T) {
	a := apps.Get("S-W")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	eval := NewEvaluator(k, sp, fpga.VU9P(), 1024, hls.Options{})
	mild := sp.AreaSeed()
	mild["L0.parallel"] = 128 // somewhat over budget
	wild := sp.AreaSeed()
	wild["L0.parallel"] = 256
	wild["L1.parallel"] = 64
	wild["L2.parallel"] = 64
	rm, rw := eval(mild), eval(wild)
	if rm.Feasible || rw.Feasible {
		t.Skip("expected both infeasible under current model")
	}
	if !(rm.Objective < rw.Objective) {
		t.Errorf("no gradient: mild=%v wild=%v", rm.Objective, rw.Objective)
	}
	// Flat wrapper erases the gradient.
	flat := FlatInfeasible(eval)
	if flat(mild).Objective != flat(wild).Objective {
		t.Error("FlatInfeasible kept a gradient")
	}
}

func TestNoFeasibleOutcome(t *testing.T) {
	sp, _ := kmeansSetup(t)
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	eval := func(pt space.Point) tuner.Result {
		return tuner.Result{Point: pt, Objective: 1e8, Feasible: false, Minutes: 5}
	}
	cfg := VanillaConfig(1)
	cfg.TimeLimitMinutes = 30
	out := Run(k, sp, eval, cfg)
	if out.Best.Feasible || !math.IsInf(out.Best.Objective, 1) {
		t.Errorf("outcome with no feasible point: %+v", out.Best)
	}
}
