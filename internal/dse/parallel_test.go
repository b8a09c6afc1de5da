package dse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// assertOutcomesIdentical fails unless the two outcomes match on every
// field of the determinism contract: trajectory, best point, evaluation
// count, stop reason, clocks, and the prune/collapse counters.
func assertOutcomesIdentical(t *testing.T, seq, par *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(seq.Trajectory, par.Trajectory) {
		t.Fatalf("trajectories differ:\nseq: %+v\npar: %+v", seq.Trajectory, par.Trajectory)
	}
	if seq.Evaluations != par.Evaluations {
		t.Fatalf("evaluations: seq %d par %d", seq.Evaluations, par.Evaluations)
	}
	if seq.StopReason != par.StopReason {
		t.Fatalf("stop reason: seq %s par %s", seq.StopReason, par.StopReason)
	}
	if seq.Best.Point.Key() != par.Best.Point.Key() || seq.Best.Objective != par.Best.Objective {
		t.Fatalf("best differs: seq %v=%v par %v=%v",
			seq.Best.Point, seq.Best.Objective, par.Best.Point, par.Best.Objective)
	}
	if seq.TotalMinutes != par.TotalMinutes {
		t.Fatalf("total minutes: seq %v par %v", seq.TotalMinutes, par.TotalMinutes)
	}
	if math.Float64bits(seq.FirstFeasible) != math.Float64bits(par.FirstFeasible) ||
		math.Float64bits(seq.FirstFeasibleMinutes) != math.Float64bits(par.FirstFeasibleMinutes) {
		t.Fatalf("first feasible: seq (%v, %v) par (%v, %v)",
			seq.FirstFeasible, seq.FirstFeasibleMinutes, par.FirstFeasible, par.FirstFeasibleMinutes)
	}
	counters := func(o *Outcome) [6]int {
		return [6]int{o.StaticallyPruned, o.DependPruned, o.AccessPruned, o.RangeCollapsed,
			o.PrunedDomainValues, o.RangeRestrictedValues}
	}
	if counters(seq) != counters(par) {
		t.Fatalf("counters (static, depend, access, range, pruned domain values, restricted widths): seq %v par %v",
			counters(seq), counters(par))
	}
	if seq.Summary() != par.Summary() {
		t.Fatalf("summaries differ:\nseq: %s\npar: %s", seq.Summary(), par.Summary())
	}
}

// TestParallelEngineMatchesSequential is the in-package determinism
// check over real kernels: the full S2FA configuration at several pool
// sizes, with and without the prune guard's rules, must be
// byte-identical to the sequential reference. Without the rules exact
// repeats reach the memo, so both engines' Minutes accounting for
// repeats is exercised. (The full 12-app × seed matrix lives in
// internal/apps; this one keeps the -race -count=N stress of
// internal/dse fast while still covering the engine end to end.)
func TestParallelEngineMatchesSequential(t *testing.T) {
	dev := fpga.VU9P()
	for _, name := range []string{"KMeans", "S-W"} {
		a := apps.Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 42} {
			for _, prune := range []bool{true, false} {
				spSeq := space.Identify(k)
				cfg := S2FAConfig(seed)
				cfg.Device = dev
				cfg.Prune = prune
				seq := Run(k, spSeq, NewEvaluator(k, spSeq, dev, int64(a.Tasks), hls.Options{}), cfg)
				for _, par := range []int{1, 4, 16} {
					if testing.Short() && par != 4 {
						continue
					}
					sub := fmt.Sprintf("%s/seed%d/par%d", name, seed, par)
					if !prune {
						sub = fmt.Sprintf("%s/seed%d/noprune/par%d", name, seed, par)
					}
					t.Run(sub, func(t *testing.T) {
						sp := space.Identify(k)
						pcfg := cfg
						pcfg.Engine = EngineParallel
						pcfg.Parallelism = par
						out := Run(k, sp, NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{}), pcfg)
						assertOutcomesIdentical(t, seq, out)
					})
				}
			}
		}
	}
}

// TestParallelEngineVanillaAndTrivial covers the two baseline
// configurations (no partitioning / trivial stopper) through the
// parallel engine.
func TestParallelEngineVanillaAndTrivial(t *testing.T) {
	dev := fpga.VU9P()
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		flat bool
	}{
		{"vanilla", VanillaConfig(7), true},
		{"trivial", TrivialStopConfig(7), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spSeq := space.Identify(k)
			seqEval := NewEvaluator(k, spSeq, dev, int64(a.Tasks), hls.Options{})
			if tc.flat {
				seqEval = FlatInfeasible(seqEval)
			}
			seq := Run(k, spSeq, seqEval, tc.cfg)

			sp := space.Identify(k)
			parEval := NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})
			if tc.flat {
				parEval = FlatInfeasible(parEval)
			}
			pcfg := tc.cfg
			pcfg.Engine = EngineParallel
			pcfg.Parallelism = 4
			assertOutcomesIdentical(t, seq, Run(k, sp, parEval, pcfg))
		})
	}
}

// syntheticPure is a deterministic pure evaluator over any space: the
// objective and synthesis cost are hashed from the point key, with a
// configurable feasibility predicate. It stands in for the HLS model in
// engine-behavior tests that need exact control of Minutes.
func syntheticPure(minutes float64, feasible func(space.Point) bool) tuner.Evaluator {
	return func(pt space.Point) tuner.Result {
		var h uint64 = 14695981039346656037
		for _, c := range []byte(pt.Key()) {
			h = (h ^ uint64(c)) * 1099511628211
		}
		obj := 1 + float64(h%1000)/1000
		f := feasible == nil || feasible(pt)
		if !f {
			obj = infeasiblePenalty
		}
		return tuner.Result{Point: pt, Objective: obj, Feasible: f, Minutes: minutes}
	}
}

func kernelFor(t *testing.T) *cir.Kernel {
	t.Helper()
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestParallelTimeoutBoundaries drives both engines with evaluations of
// controlled virtual cost through the budget edge cases: an iteration
// that lands exactly on the limit, one that overshoots and pins, and a
// limit smaller than the first evaluation.
func TestParallelTimeoutBoundaries(t *testing.T) {
	cases := []struct {
		name    string
		minutes float64
		limit   float64
	}{
		{"exactly-at-limit", 10, 40},          // 4 iterations land on the limit
		{"overshoot-pins", 7, 10},             // second iteration pins at the limit
		{"limit-below-first-eval", 30, 10},    // first evaluation already pins
		{"fractional-accumulation", 0.7, 2.0}, // rounding-sensitive accumulation
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := kernelFor(t)
			pure := syntheticPure(tc.minutes, nil)
			cfg := Config{
				Workers:          2,
				TimeLimitMinutes: tc.limit,
				Stopper:          NeverStopper{},
				BatchPerIter:     1,
				Seed:             5,
				MaxEvaluations:   10_000,
			}
			seq := Run(k, space.Identify(k), pure, cfg)
			pcfg := cfg
			pcfg.Engine = EngineParallel
			pcfg.Parallelism = 3
			par := Run(k, space.Identify(k), pure, pcfg)
			assertOutcomesIdentical(t, seq, par)
			if seq.TotalMinutes > tc.limit {
				t.Fatalf("clock overran the limit: %v > %v", seq.TotalMinutes, tc.limit)
			}
			if seq.StopReason != StopBudgetExhausted {
				t.Fatalf("stop reason %s, want budget-exhausted", seq.StopReason)
			}
		})
	}
}

// TestParallelMaxEvaluations checks the evaluation-budget cutoff stays
// identical when batches are pre-proposed.
func TestParallelMaxEvaluations(t *testing.T) {
	k := kernelFor(t)
	pure := syntheticPure(1, nil)
	cfg := Config{
		Workers:          4,
		TimeLimitMinutes: 240,
		Stopper:          NeverStopper{},
		BatchPerIter:     2,
		Seed:             9,
		MaxEvaluations:   37,
	}
	seq := Run(k, space.Identify(k), pure, cfg)
	pcfg := cfg
	pcfg.Engine = EngineParallel
	pcfg.Parallelism = 4
	par := Run(k, space.Identify(k), pure, pcfg)
	assertOutcomesIdentical(t, seq, par)
	if seq.StopReason != StopBudgetExhausted {
		t.Fatalf("stop reason %s", seq.StopReason)
	}
}

// TestParallelEmitsPoolCounters asserts the engine's observability
// contract: a traced parallel run reports dispatch, cache, queue-wait,
// and per-worker utilization counters.
func TestParallelEmitsPoolCounters(t *testing.T) {
	dev := fpga.VU9P()
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	tr := obs.New(discardSink{})
	cfg := S2FAConfig(3)
	cfg.Device = dev
	cfg.Engine = EngineParallel
	cfg.Parallelism = 2
	cfg.Trace = tr
	out := Run(k, sp, NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{}), cfg)
	if out.Evaluations == 0 {
		t.Fatal("no evaluations")
	}
	got := tr.Counters()
	for _, name := range []string{
		"dse.par.dispatched",
		"dse.par.cache.hits",
		"dse.par.cache.misses",
		"dse.par.cache.contended",
		"dse.par.abandoned",
		"dse.par.speculative_waste",
		"dse.par.queue_wait_us",
		"dse.par.merge_stall_us",
		"dse.par.worker0.busy_us",
		"dse.par.worker1.busy_us",
		"hls.estimations",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("missing counter %s (have %v)", name, got)
		}
	}
	if got["dse.par.dispatched"] == 0 {
		t.Error("dispatched = 0, pool never saw a prefetch")
	}
	if got["dse.par.speculative_waste"] < 0 {
		t.Errorf("speculative waste negative: %d", got["dse.par.speculative_waste"])
	}
	// Every fresh estimation fetches once: a hit, a contended wait, or
	// an inline computation. The rest of the misses are pool-worker
	// computations, at least one per hit or wait and at most one per
	// job a worker picked up; waste is what was never fetched.
	fetched := got["hls.estimations"]
	hits, contended, misses := got["dse.par.cache.hits"], got["dse.par.cache.contended"], got["dse.par.cache.misses"]
	inline := fetched - hits - contended
	byWorkers := misses - inline
	if inline < 0 || byWorkers < hits+contended || byWorkers > got["dse.par.dispatched"]-got["dse.par.abandoned"] {
		t.Errorf("counters do not add up: fetched %d, hits %d, contended %d, misses %d, dispatched %d, abandoned %d",
			fetched, hits, contended, misses, got["dse.par.dispatched"], got["dse.par.abandoned"])
	}
	if waste := got["dse.par.speculative_waste"]; waste != misses-fetched {
		t.Errorf("speculative waste %d, want misses %d - fetched %d", waste, misses, fetched)
	}
}

type discardSink struct{}

func (discardSink) Emit(obs.Event) {}
func (discardSink) Close() error   { return nil }

// TestEvalPoolCloseAbandonsQueue floods the pool and closes it
// immediately: close must return promptly (workers abandon the backlog)
// and never deadlock. Repeated points are announced once.
func TestEvalPoolCloseAbandonsQueue(t *testing.T) {
	sp := space.Identify(kernelFor(t))
	points := space.NewTable(sp)
	pure := syntheticPure(1, nil)
	p := newEvalPool(2, "test", pure)
	rng := rand.New(rand.NewSource(1))
	distinct := map[space.ID]bool{}
	for i := 0; i < 500; i++ {
		pt := sp.RandomPoint(rng)
		id := points.ID(pt)
		distinct[id] = true
		p.prefetch(id, pt, -1)
	}
	p.close(nil)
	if got := p.dispatched.Load(); got != int64(len(distinct)) {
		t.Fatalf("dispatched = %d, want %d distinct points", got, len(distinct))
	}
}

// TestEvalPoolAnnouncesOnce checks that announcing an ID twice
// dispatches one job.
func TestEvalPoolAnnouncesOnce(t *testing.T) {
	sp := space.Identify(kernelFor(t))
	points := space.NewTable(sp)
	p := newEvalPool(1, "test", syntheticPure(1, nil))
	pt := sp.AreaSeed()
	id := points.ID(pt)
	p.prefetch(id, pt, -1)
	p.prefetch(id, pt, 3)
	r := p.fetch(id, pt)
	p.close(nil)
	if got := p.dispatched.Load(); got != 1 {
		t.Fatalf("dispatched = %d, want 1", got)
	}
	if got := p.misses.Load(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if r.Point.Key() != pt.Key() {
		t.Fatalf("fetched %v, want %v", r.Point, pt)
	}
}

// TestEvalPoolComputesOncePerSlot races pool workers against fetch on
// every slot: each point is announced and fetched at once, so either
// side may claim it, and the value must be computed exactly once and
// be the pure one. Run it under -race.
func TestEvalPoolComputesOncePerSlot(t *testing.T) {
	sp := space.Identify(kernelFor(t))
	points := space.NewTable(sp)
	pure := syntheticPure(1, nil)
	var mu sync.Mutex
	calls := map[string]int{}
	counted := func(pt space.Point) tuner.Result {
		mu.Lock()
		calls[pt.Key()]++
		mu.Unlock()
		return pure(pt)
	}
	p := newEvalPool(4, "test", counted)
	rng := rand.New(rand.NewSource(2))
	fetched := map[space.ID]bool{}
	for i := 0; i < 300; i++ {
		pt := sp.RandomPoint(rng)
		id := points.ID(pt)
		p.prefetch(id, pt, -1)
		if fetched[id] {
			continue
		}
		fetched[id] = true
		if got, want := p.fetch(id, pt), pure(pt); got.Objective != want.Objective || got.Point.Key() != pt.Key() {
			t.Fatalf("fetch %v = %+v, want %+v", pt, got, want)
		}
	}
	p.close(nil)
	for k, n := range calls {
		if n != 1 {
			t.Fatalf("point %s computed %d times", k, n)
		}
	}
	if len(calls) != len(fetched) || p.misses.Load() != int64(len(fetched)) {
		t.Fatalf("%d points computed, misses %d, want %d", len(calls), p.misses.Load(), len(fetched))
	}
	if p.hits+p.contended > p.fetched {
		t.Fatalf("hits %d + contended %d exceed %d fetches", p.hits, p.contended, p.fetched)
	}
}

// TestEvalPoolFetchHandsOver checks that a slot a pool worker filled
// keeps no copy of the result once fetched, and that a point never
// announced is computed inline.
func TestEvalPoolFetchHandsOver(t *testing.T) {
	sp := space.Identify(kernelFor(t))
	points := space.NewTable(sp)
	p := newEvalPool(1, "test", syntheticPure(1, nil))
	byWorker := sp.AreaSeed()
	id := points.ID(byWorker)
	p.prefetch(id, byWorker, -1)
	<-p.slots[id].done
	if r := p.fetch(id, byWorker); r.Point == nil {
		t.Fatal("fetch returned an empty result")
	}
	inline := sp.PerformanceSeed()
	inlineID := points.ID(inline)
	if r := p.fetch(inlineID, inline); r.Point == nil {
		t.Fatal("inline fetch returned an empty result")
	}
	p.close(nil)
	if p.hits != 1 || p.misses.Load() != 2 {
		t.Fatalf("hits %d misses %d, want 1 and 2", p.hits, p.misses.Load())
	}
	if res := p.slots[id].res; !reflect.DeepEqual(res, tuner.Result{}) {
		t.Fatalf("slot still holds %+v after fetch", res)
	}
}

// TestIdentityRowFreshness pins the Minutes contract of the prune
// guard's identity row under EngineParallel: the first evaluation of a
// point charges the pure cost, a repeat charges 0 with the same
// objective, and the point is estimated once, whether a pool worker
// computed the value first or the scheduler computed it inline.
func TestIdentityRowFreshness(t *testing.T) {
	sp := space.Identify(kernelFor(t))
	pure := syntheticPure(42, nil)
	for _, prefetched := range []bool{true, false} {
		var calls atomic.Int32
		computed := make(chan struct{}, 1)
		counted := func(pt space.Point) tuner.Result {
			calls.Add(1)
			select {
			case computed <- struct{}{}:
			default:
			}
			return pure(pt)
		}
		points := space.NewTable(sp)
		p := newEvalPool(2, "test", counted)
		eval := newGuard(nil, estimate(counted, p, nil), points, &Outcome{}, nil)
		pt := sp.AreaSeed()
		if prefetched {
			p.prefetch(points.ID(pt), pt, -1)
			<-computed // a pool worker is computing the value
		}
		r1 := eval(pt)
		r2 := eval(pt)
		p.close(nil)
		if r1.Minutes != 42 {
			t.Fatalf("prefetched=%t: first evaluation Minutes = %v, want fresh cost 42", prefetched, r1.Minutes)
		}
		if r2.Minutes != 0 {
			t.Fatalf("prefetched=%t: repeat Minutes = %v, want 0", prefetched, r2.Minutes)
		}
		if r1.Objective != r2.Objective {
			t.Fatalf("prefetched=%t: objective changed on the repeat: %v vs %v", prefetched, r1.Objective, r2.Objective)
		}
		if n := calls.Load(); n != 1 || p.fetched != 1 {
			t.Errorf("prefetched=%t: %d estimations, %d fetches; want 1 each", prefetched, n, p.fetched)
		}
	}
}
