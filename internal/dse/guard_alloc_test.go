package dse

import (
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// maxGuardSetupAllocs bounds the allocations of building the pruned
// prune guard for S-W under S2FAConfig (TestGuardSetupAllocs). When the
// static pruner, the lint rule, the dependence and access rules and the
// width model each re-ran their own kernel analyses, setup allocated
// 2033 times; sharing one hls.Analysis it allocates 862. The count is
// deterministic for a fixed kernel.
const maxGuardSetupAllocs = 1000

// TestGuardSetupAllocs pins that the pruned guard analyzes its kernel
// once: building it for S-W stays under maxGuardSetupAllocs.
func TestGuardSetupAllocs(t *testing.T) {
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	cfg := S2FAConfig(1)
	inner := func(pt space.Point, _ space.ID) tuner.Result { return tuner.Result{Point: pt} }
	n := testing.AllocsPerRun(20, func() {
		guardEvaluator(k, sp, space.NewTable(sp), inner, cfg, &Outcome{})
	})
	t.Logf("pruned guard setup for S-W: %.0f allocs", n)
	if n > maxGuardSetupAllocs {
		t.Errorf("building the pruned S-W guard allocates %.0f times, above the bound of %d", n, maxGuardSetupAllocs)
	}
}
