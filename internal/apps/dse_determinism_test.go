package apps

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
)

// outcomeFingerprint serializes every Outcome field of the determinism
// contract into one string, so "byte-identical" is checked literally:
// two engines agree iff their fingerprints are equal byte for byte.
func outcomeFingerprint(o *dse.Outcome) string {
	s := fmt.Sprintf("kernel=%s evals=%d stop=%s total=%b first=%x@%x best=%s/%b prune=%d/%d collapse=%d/%d parts=%d\n",
		o.KernelName, o.Evaluations, o.StopReason,
		math.Float64bits(o.TotalMinutes),
		math.Float64bits(o.FirstFeasible), math.Float64bits(o.FirstFeasibleMinutes),
		o.Best.Point.Key(), math.Float64bits(o.Best.Objective),
		o.StaticallyPruned, o.PrunedDomainValues,
		o.RangeCollapsed, o.RangeRestrictedValues,
		len(o.Partitions))
	for _, p := range o.Trajectory {
		s += fmt.Sprintf("  %b %b\n", math.Float64bits(p.Minutes), math.Float64bits(p.Objective))
	}
	return s
}

// TestDSECrossEngineDeterminism is the cross-engine determinism property
// over the full workload suite: for every app and seed, the parallel
// engine must produce a byte-identical Outcome to the sequential
// reference at every pool size and GOMAXPROCS setting. This is the
// acceptance property of the concurrent DSE engine — the trajectory,
// incumbent sequence, entropy stops, and all counters may not move by
// one bit whatever the hardware parallelism.
func TestDSECrossEngineDeterminism(t *testing.T) {
	dev := fpga.VU9P()
	appNames := Names()
	seeds := []int64{1, 42, 7}
	pools := []int{1, 4, 16}
	if testing.Short() {
		appNames = []string{"S-W", "KMeans"}
		seeds = []int64{1}
		pools = []int{4}
	}
	prevProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prevProcs)

	for _, name := range appNames {
		a := Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			spSeq := space.Identify(k)
			cfg := dse.S2FAConfig(seed)
			cfg.Device = dev
			ref := outcomeFingerprint(dse.Run(k, spSeq,
				dse.NewEvaluator(k, spSeq, dev, int64(a.Tasks), hls.Options{}), cfg))
			for _, pool := range pools {
				t.Run(fmt.Sprintf("%s/seed%d/par%d", name, seed, pool), func(t *testing.T) {
					runtime.GOMAXPROCS(pool)
					sp := space.Identify(k)
					pcfg := cfg
					pcfg.Engine = dse.EngineParallel
					pcfg.Parallelism = pool
					got := outcomeFingerprint(dse.Run(k, sp,
						dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{}), pcfg))
					if got != ref {
						t.Errorf("parallel outcome diverged from sequential reference:\n--- sequential\n%s--- parallel\n%s", ref, got)
					}
				})
			}
		}
	}
}
