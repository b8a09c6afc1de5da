package dse

import (
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
)

// TestPureEvalAllocsBelowOneClone pins the per-point path to validate +
// price: evaluating the S-W performance seed must allocate less than one
// copy of the S-W kernel does, so no annotated clone can creep back into
// the evaluator.
func TestPureEvalAllocsBelowOneClone(t *testing.T) {
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	dev := fpga.VU9P()
	an := hls.Analyze(k)
	pt := sp.PerformanceSeed()
	if r := pureEval(an, k, sp, dev, int64(a.Tasks), hls.Options{}, pt); r.Meta == nil {
		t.Fatal("S-W performance seed rejected")
	}
	eval := testing.AllocsPerRun(50, func() {
		pureEval(an, k, sp, dev, int64(a.Tasks), hls.Options{}, pt)
	})
	clone := testing.AllocsPerRun(50, func() { cir.CloneKernel(k) })
	t.Logf("pureEval %.0f allocs, CloneKernel %.0f allocs", eval, clone)
	if eval >= clone {
		t.Errorf("pureEval allocates %.0f times per point, not below one CloneKernel of S-W (%.0f)", eval, clone)
	}
}
