package dse

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

func swSetup(t *testing.T) (*apps.App, *space.Space) {
	t.Helper()
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return a, space.Identify(k)
}

// withPoint returns a copy of base with the given factors overridden.
func withPoint(base space.Point, kv map[string]int) space.Point {
	pt := base.Clone()
	for k, v := range kv {
		pt[k] = v
	}
	return pt
}

// TestGuardRules checks each rule in isolation, through newGuard over a
// single-rule table and a stub inner evaluator. A reject rule turns its
// point away for pruneMinutes on every call without reaching the inner
// evaluator. A collapse rule serves a point its class representative's
// report at full minutes on first sight (Point set to the evaluated
// point) and at zero minutes on a repeat. Points outside the rule pass
// through untouched.
func TestGuardRules(t *testing.T) {
	a, sp := swSetup(t)
	k, _ := a.Kernel()
	seed := sp.AreaSeed()
	an := hls.Analyze(k)
	if c := an.Access().PortCap("L2"); c != 32 {
		t.Fatalf("S-W L2 port cap = %d, want 32 (4 direct H accesses, 128 element-ports)", c)
	}
	wide := widthCollapsible(t, k, sp)

	cases := []struct {
		name string
		rule rule
		// first reaches the inner evaluator; hit is the point the rule
		// acts on; pass must reach the inner evaluator too.
		first, hit, pass space.Point
		count            func(*Outcome) int
	}{
		{
			// The task loop nests the while-loop traceback, so flattening
			// it is a provable lint error (RuleFlattenVarTrip).
			name:  "static",
			rule:  staticRule(an.Checker(), sp),
			first: seed,
			hit:   withPoint(seed, map[string]int{k.TaskLoopID + ".pipeline": space.PipeFlattenVal}),
			pass:  withPoint(seed, map[string]int{"L2.parallel": 2}),
			count: func(o *Outcome) int { return o.StaticallyPruned },
		},
		{
			// L2 carries the cell recurrence through H: unpipelined lanes
			// serialize and share the parallel=1 sibling's report, while
			// the pipelined wavefront is S-W's profitable design.
			name:  "depend",
			rule:  dependRule(an.Depend()),
			first: withPoint(seed, map[string]int{"L2.parallel": 1, "L2.pipeline": space.PipeOffVal}),
			hit:   withPoint(seed, map[string]int{"L2.parallel": 4, "L2.pipeline": space.PipeOffVal}),
			pass:  withPoint(seed, map[string]int{"L2.parallel": 4, "L2.pipeline": space.PipeOnVal}),
			count: func(o *Outcome) int { return o.DependPruned },
		},
		{
			// Four direct H accesses per L2 iteration feed at most 32
			// lanes; below the cap every factor buys real lanes.
			name:  "access",
			rule:  accessRule(an.Access()),
			first: withPoint(seed, map[string]int{"L2.parallel": 32, "L2.pipeline": space.PipeOnVal}),
			hit:   withPoint(seed, map[string]int{"L2.parallel": 39, "L2.pipeline": space.PipeOnVal}),
			pass:  withPoint(seed, map[string]int{"L2.parallel": 27, "L2.pipeline": space.PipeOnVal}),
			count: func(o *Outcome) int { return o.AccessPruned },
		},
		{
			name:  "range",
			rule:  widthRule(k, sp, an.WidthModel(fpga.VU9P())),
			first: wide.canon,
			hit:   wide.pt,
			pass:  wide.distinct,
			count: func(o *Outcome) int { return o.RangeCollapsed },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			innerCalls := 0
			inner := func(pt space.Point, _ space.ID) tuner.Result {
				innerCalls++
				return tuner.Result{Point: pt, Objective: 1, Feasible: true, Minutes: 5}
			}
			out := &Outcome{}
			eval := newGuard([]rule{tc.rule}, inner, space.NewTable(sp), out, nil)
			reject := tc.rule.reject != nil

			if r := eval(tc.first); innerCalls != 1 || tc.count(out) != 0 || r.Minutes != 5 {
				t.Fatalf("first point: innerCalls=%d count=%d minutes=%v, want 1/0/5", innerCalls, tc.count(out), r.Minutes)
			}
			r := eval(tc.hit)
			if innerCalls != 1 || tc.count(out) != 1 {
				t.Fatalf("hit point: innerCalls=%d count=%d, want 1/1", innerCalls, tc.count(out))
			}
			if !reflect.DeepEqual(r.Point, tc.hit) {
				t.Errorf("hit result kept point %v, want the evaluated point %v", r.Point, tc.hit)
			}
			wantMinutes, wantRepeat, wantCount := 5.0, 0.0, 1
			if reject {
				wantMinutes, wantRepeat, wantCount = pruneMinutes, pruneMinutes, 2
				if r.Feasible || r.Objective != rejectPenalty {
					t.Errorf("rejected result = %+v, want infeasible at rejectPenalty", r)
				}
			} else if !r.Feasible || r.Objective != 1 {
				t.Errorf("served result = %+v, want the representative's report", r)
			}
			if r.Minutes != wantMinutes {
				t.Errorf("hit minutes = %v, want %v", r.Minutes, wantMinutes)
			}
			// Reject rules count every call; a collapse repeat is a
			// memoized report that costs nothing and counts once.
			if rr := eval(tc.hit); innerCalls != 1 || tc.count(out) != wantCount || rr.Minutes != wantRepeat {
				t.Errorf("repeat: innerCalls=%d count=%d minutes=%v, want 1/%d/%v",
					innerCalls, tc.count(out), rr.Minutes, wantCount, wantRepeat)
			}
			if rp := eval(tc.pass); innerCalls != 2 || tc.count(out) != wantCount || rp.Minutes != 5 {
				t.Errorf("pass point: innerCalls=%d count=%d minutes=%v, want 2/%d/5",
					innerCalls, tc.count(out), rp.Minutes, wantCount)
			}
		})
	}
}

// TestGuardConcurrentCallers drives one production guard from several
// goroutines at once over points that collapse, reject, and pass
// through: every result must match the pure evaluator's (or, for a
// rejection, be infeasible there), whichever goroutine filled the memo.
// Run under -race it checks the guard's synchronization.
func TestGuardConcurrentCallers(t *testing.T) {
	a, sp := swSetup(t)
	k, _ := a.Kernel()
	pure := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
	rng := rand.New(rand.NewSource(3))
	var pts []space.Point
	for i := 0; i < 24; i++ {
		pts = append(pts, sp.RandomPoint(rng))
	}
	for _, par := range []int{1, 2, 4, 8, 32, 33, 39} {
		for _, pipe := range []int{space.PipeOffVal, space.PipeOnVal} {
			pts = append(pts, withPoint(sp.AreaSeed(), map[string]int{"L2.parallel": par, "L2.pipeline": pipe}))
		}
	}
	want := make([]tuner.Result, len(pts))
	for i, pt := range pts {
		want[i] = pure(pt)
	}
	out := &Outcome{}
	guard := newGuard(pruneRules(hls.Analyze(k), sp, fpga.VU9P()), estimate(pure, nil, nil), space.NewTable(sp), out, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range pts {
				j := (i + 7*g) % len(pts)
				r := guard(pts[j])
				switch {
				case r.Minutes == pruneMinutes:
					if want[j].Feasible {
						t.Errorf("rejected feasible point %s", pts[j].Key())
					}
				case r.Objective != want[j].Objective || r.Feasible != want[j].Feasible ||
					!reflect.DeepEqual(r.Meta, want[j].Meta):
					t.Errorf("point %s: guard %v, pure %v", pts[j].Key(), r.Meta, want[j].Meta)
				}
			}
		}(g)
	}
	wg.Wait()
	if out.StaticallyPruned == 0 || out.DependPruned+out.AccessPruned == 0 {
		t.Errorf("points exercised too few rules: static %d depend %d access %d",
			out.StaticallyPruned, out.DependPruned, out.AccessPruned)
	}
}

// widthCase is a point the range rule lowers, its canonical sibling, and
// a point of another class.
type widthCase struct{ pt, canon, distinct space.Point }

// widthCollapsible finds a point the range rule maps to a narrower
// sibling: the S-W area seed with every width at one value, for the
// widest value and task-loop pipeline mode that has one.
func widthCollapsible(t *testing.T, k *cir.Kernel, sp *space.Space) widthCase {
	t.Helper()
	r := widthRule(k, sp, hls.Analyze(k).WidthModel(fpga.VU9P()))
	for w := 512; w > 8; w /= 2 {
		for _, pipe := range []int{space.PipeOffVal, space.PipeOnVal, space.PipeFlattenVal} {
			pt := sp.AreaSeed()
			pt[k.TaskLoopID+".pipeline"] = pipe
			for _, p := range sp.Params {
				if p.Kind == space.FactorBitWidth {
					pt[p.Name] = p.Clamp(w)
				}
			}
			if canon := r.canon(pt); canon != nil {
				return widthCase{pt: pt, canon: canon, distinct: withPoint(pt, map[string]int{"L2.parallel": 2})}
			}
		}
	}
	t.Fatal("range rule lowers no width of any uniform-width S-W point")
	return widthCase{}
}

// runWithout runs the S2FA search on app a at seed behind the production
// rule table minus the named rule, so each rule's effect is measured
// against a run that differs only by that rule.
func runWithout(t *testing.T, a *apps.App, seed int64, skip string) *Outcome {
	t.Helper()
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	cfg := S2FAConfig(seed)
	var rules []rule
	for _, r := range pruneRules(hls.Analyze(k), sp, fpga.VU9P()) {
		if r.name != skip {
			rules = append(rules, r)
		}
	}
	tally := &Outcome{}
	eval := newGuard(rules, estimate(NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{}), nil, nil), space.NewTable(sp), tally, nil)
	cfg.Prune = false
	o := Run(k, sp, eval, cfg)
	o.StaticallyPruned, o.DependPruned = tally.StaticallyPruned, tally.DependPruned
	o.AccessPruned, o.RangeCollapsed = tally.AccessPruned, tally.RangeCollapsed
	return o
}

// runS2FA is the production S2FA search on app a at seed.
func runS2FA(t *testing.T, a *apps.App, seed int64) *Outcome {
	t.Helper()
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	return Run(k, sp, NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{}), S2FAConfig(seed))
}

// freshEvals counts the evaluations no guard rule answered.
func freshEvals(o *Outcome) int {
	return o.Evaluations - o.StaticallyPruned - o.DependPruned - o.AccessPruned - o.RangeCollapsed
}

// assertSameSearch fails unless the two runs followed the same search.
func assertSameSearch(t *testing.T, base, guarded *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(base.Best.Point, guarded.Best.Point) {
		t.Errorf("best point changed:\n  base    %v\n  guarded %v", base.Best.Point, guarded.Best.Point)
	}
	if base.Best.Objective != guarded.Best.Objective {
		t.Errorf("best objective changed: %v -> %v", base.Best.Objective, guarded.Best.Objective)
	}
	if !reflect.DeepEqual(base.Trajectory, guarded.Trajectory) {
		t.Errorf("trajectory changed:\n  base    %v\n  guarded %v", base.Trajectory, guarded.Trajectory)
	}
	if base.Evaluations != guarded.Evaluations {
		t.Errorf("evaluation count changed: %d -> %d", base.Evaluations, guarded.Evaluations)
	}
}

// TestStaticPruneSameQualityFewerEvaluations is the paper-facing claim:
// on S-W, the static rule must reach the same best design while
// spending HLS estimation on measurably fewer points — the statically
// pruned proposals cost microseconds, not synthesis minutes. Both runs
// share seed 5 (picked so neither half of the controlled pair is trapped
// in the wavefront-free local optimum: the clock shift from cheap
// rejections can tip a borderline seed), so outcomes are exact.
func TestStaticPruneSameQualityFewerEvaluations(t *testing.T) {
	a, _ := swSetup(t)
	base, guarded := runWithout(t, a, 5, "static"), runS2FA(t, a, 5)

	if base.StaticallyPruned != 0 || base.PrunedDomainValues != 0 {
		t.Errorf("unguarded run reported pruning: %d/%d", base.StaticallyPruned, base.PrunedDomainValues)
	}
	if guarded.StaticallyPruned == 0 {
		t.Error("guarded run pruned nothing; S-W must reject flatten over the while traceback")
	}
	if guarded.PrunedDomainValues != 1 {
		t.Errorf("PrunedDomainValues = %d, want exactly 1 (flatten on the traceback nest)", guarded.PrunedDomainValues)
	}
	if math.Abs(guarded.Best.Objective-base.Best.Objective) > 1e-12*base.Best.Objective {
		t.Errorf("pruning changed the best design quality: %.9f vs %.9f",
			guarded.Best.Objective, base.Best.Objective)
	}
	if freshEvals(guarded) >= freshEvals(base) {
		t.Errorf("guarded run did not save HLS evaluations: %d vs %d", freshEvals(guarded), freshEvals(base))
	}
	t.Logf("best=%.6f HLS evals %d -> %d (%d statically pruned, %d domain value)",
		guarded.Best.Objective, freshEvals(base), freshEvals(guarded), guarded.StaticallyPruned, guarded.PrunedDomainValues)
}

// TestDependPruneFewerEstimationsSameBest: on S-W at seed 42 the depend
// rule must cut fresh HLS estimations below the pre-verdict 147 while
// following a byte-identical search.
func TestDependPruneFewerEstimationsSameBest(t *testing.T) {
	a, _ := swSetup(t)
	base, guarded := runWithout(t, a, 42, "depend"), runS2FA(t, a, 42)

	if base.DependPruned != 0 {
		t.Errorf("unguarded run reported dependence pruning: %d", base.DependPruned)
	}
	if guarded.DependPruned == 0 {
		t.Error("guarded run pruned nothing; S-W proposes unpipelined parallel lanes on carried loops")
	}
	assertSameSearch(t, base, guarded)
	if freshEvals(guarded) >= 147 {
		t.Errorf("fresh HLS estimations = %d, want < 147 (pre-verdict reference)", freshEvals(guarded))
	}
	if freshEvals(guarded) >= freshEvals(base) {
		t.Errorf("pruning saved no estimations: %d vs %d", freshEvals(guarded), freshEvals(base))
	}
	t.Logf("S-W seed 42: fresh HLS estimations %d -> %d (depend-pruned %d)",
		freshEvals(base), freshEvals(guarded), guarded.DependPruned)
}

// TestAccessPruneFewerEstimationsSameBest: on S-W at seed 42 the access
// rule must cut fresh HLS estimations below the pre-access 79 while
// following a byte-identical search.
func TestAccessPruneFewerEstimationsSameBest(t *testing.T) {
	a, _ := swSetup(t)
	base, guarded := runWithout(t, a, 42, "access"), runS2FA(t, a, 42)

	if base.AccessPruned != 0 {
		t.Errorf("unguarded run reported access pruning: %d", base.AccessPruned)
	}
	if guarded.AccessPruned == 0 {
		t.Error("guarded run pruned nothing; S-W proposes parallel factors above the L2 port cap")
	}
	assertSameSearch(t, base, guarded)
	if freshEvals(guarded) >= 79 {
		t.Errorf("fresh HLS estimations = %d, want < 79 (pre-access reference)", freshEvals(guarded))
	}
	if freshEvals(guarded) >= freshEvals(base) {
		t.Errorf("pruning saved no estimations: %d vs %d", freshEvals(guarded), freshEvals(base))
	}
	t.Logf("S-W seed 42: fresh HLS estimations %d -> %d (access-pruned %d)",
		freshEvals(base), freshEvals(guarded), guarded.AccessPruned)
}

// TestRangeCollapsePreservesTrajectorySW: on S-W at seed 42 the range
// rule must cut real HLS estimations below the 93-estimation reference
// while leaving the search byte-identical to a run without it.
func TestRangeCollapsePreservesTrajectorySW(t *testing.T) {
	a, _ := swSetup(t)
	base, opt := runWithout(t, a, 42, "range"), runS2FA(t, a, 42)

	assertSameSearch(t, base, opt)
	if base.StaticallyPruned != opt.StaticallyPruned {
		t.Errorf("static prune count changed: %d -> %d", base.StaticallyPruned, opt.StaticallyPruned)
	}
	if opt.RangeRestrictedValues != 4 {
		t.Errorf("RangeRestrictedValues = %d, want 4 (one 512-bit value per buffer)", opt.RangeRestrictedValues)
	}
	if opt.RangeCollapsed == 0 {
		t.Error("RangeCollapsed = 0: no evaluation reused a width-equivalent report")
	}
	baseHLS := base.Evaluations - base.StaticallyPruned
	optHLS := opt.Evaluations - opt.StaticallyPruned - opt.RangeCollapsed
	if baseHLS != 93 {
		t.Errorf("baseline HLS estimations = %d, want 93 (seed-42 reference)", baseHLS)
	}
	if optHLS >= 93 {
		t.Errorf("HLS estimations = %d, want < 93", optHLS)
	}
	t.Logf("S-W seed 42: HLS estimations %d -> %d (collapsed %d, dominated widths %d)",
		baseHLS, optHLS, opt.RangeCollapsed, opt.RangeRestrictedValues)
}

// TestSummaryReportsPruneCounters pins the Fig. 3 summary line format the
// exp package surfaces.
func TestSummaryReportsPruneCounters(t *testing.T) {
	o := &Outcome{KernelName: "k", Best: tuner.Result{Objective: 1, Feasible: true}}
	if s := o.Summary(); strings.Contains(s, "statically-pruned") {
		t.Errorf("summary mentions pruning with zero counters: %s", s)
	}
	o.StaticallyPruned, o.PrunedDomainValues = 7, 2
	if s := o.Summary(); !strings.Contains(s, "statically-pruned=7(+2 domain values)") {
		t.Errorf("summary missing prune counters: %s", s)
	}
}

// TestGuardCanonicalIdentity extends the point-identity contract
// (space.TestIdentityMatchesKey) to the guard's class representatives:
// over every workload and the generated kernels, raw points and every
// collapse rule's canonical points get the same table ID exactly when
// their Keys are equal. Each collapse rule must produce some canonical
// point, so the check covers all three.
func TestGuardCanonicalIdentity(t *testing.T) {
	fired := map[string]int{}
	for _, gk := range oracleKernels(t) {
		sp := space.Identify(gk.k)
		rules := pruneRules(hls.Analyze(gk.k), sp, fpga.VU9P())
		rng := rand.New(rand.NewSource(3))
		raw := []space.Point{sp.PerformanceSeed(), sp.AreaSeed()}
		for i := 0; i < 60; i++ {
			pt := sp.RandomPoint(rng)
			// An untiled task loop opens the width rule.
			raw = append(raw, pt, withPoint(pt, map[string]int{gk.k.TaskLoopID + ".tile": 1}))
		}
		var pts []space.Point
		for _, pt := range raw {
			pts = append(pts, pt)
			for _, r := range rules {
				if r.canon == nil {
					continue
				}
				if c := r.canon(pt); c != nil {
					pts = append(pts, c)
					fired[r.name]++
				}
			}
		}
		tab := space.NewTable(sp)
		byKey := map[string]space.ID{}
		byID := map[space.ID]string{}
		for _, pt := range pts {
			key, id := pt.Key(), tab.ID(pt)
			if prev, ok := byKey[key]; ok && prev != id {
				t.Fatalf("%s: point %s has two IDs", gk.name, key)
			}
			if prev, ok := byID[id]; ok && prev != key {
				t.Fatalf("%s: points %s and %s share ID %d", gk.name, prev, key, id)
			}
			byKey[key], byID[id] = id, key
		}
	}
	for _, name := range []string{"depend", "access", "range"} {
		if fired[name] == 0 {
			t.Errorf("collapse rule %s produced no canonical point", name)
		}
	}
}
