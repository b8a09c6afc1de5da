package tuner

import (
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/space"
)

// maxStepAllocs bounds the allocations of one search step, step(d, 1):
// Propose, evaluate and Commit one point, on the S-W space under a synthetic evaluator (TestDriverAllocs). With
// every table keyed on the string Key() the step allocated 57 times;
// keyed on point-table IDs it allocates 35. The count is deterministic
// for the fixed seed, and one Key() per proposal adds three, so the
// bound leaves one allocation of slack.
const maxStepAllocs = 36

// TestDriverAllocs pins the tuner's hot path: looking up a point the
// driver has already evaluated allocates nothing, and one step(d, 1)
// stays under maxStepAllocs.
func TestDriverAllocs(t *testing.T) {
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	// A cheap deterministic bowl keeps the evaluator's own allocations
	// out of the count.
	eval := func(pt space.Point) Result {
		obj := 1.0
		for i := range sp.Params {
			obj += float64(pt[sp.Params[i].Name])
		}
		return Result{Point: pt, Objective: obj, Feasible: true, Minutes: 1}
	}
	d := NewDriver(sp, space.NewTable(sp), eval, 1)
	seed := sp.PerformanceSeed()
	d.InjectSeed(seed)
	d.InjectSeed(sp.AreaSeed())
	for i := 0; i < 50; i++ {
		step(d, 1)
	}
	if n := testing.AllocsPerRun(100, func() {
		if !d.DB.Seen(d.Points.ID(seed)) {
			t.Fatal("seed not seen")
		}
	}); n != 0 {
		t.Errorf("looking up a seen S-W point allocates %.1f times, want 0", n)
	}
	n := testing.AllocsPerRun(200, func() { step(d, 1) })
	t.Logf("step(d, 1): %.1f allocs", n)
	if n > maxStepAllocs {
		t.Errorf("step(d, 1) allocates %.1f times, above the bound of %d", n, maxStepAllocs)
	}
}
