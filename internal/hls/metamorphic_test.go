package hls_test

import (
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

// metamorphicPoints is the number of seeded Merlin-legal random design
// points each kernel contributes to TestPriceMetamorphic.
const metamorphicPoints = 100

// metamorphicKernels returns every workload, then a seeded sample of
// generated kernels, with their batch sizes.
func metamorphicKernels(t *testing.T) ([]*cir.Kernel, []int64) {
	t.Helper()
	var ks []*cir.Kernel
	var tasks []int64
	for _, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		ks, tasks = append(ks, k), append(tasks, int64(a.Tasks))
	}
	for _, g := range kdslgen.Generate(12, 24) {
		cls, err := kdsl.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		k, err := b2c.Compile(cls)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		ks, tasks = append(ks, k), append(tasks, 512)
	}
	return ks, tasks
}

// TestPriceMetamorphic checks two monotonicity properties of the cost
// model, as the DSE prices points (merlin.Check, then Analysis.Price of
// the directives), over seeded Merlin-legal random points of every
// workload and generated kernel. For each point and each loop's
// parallel factor raised by one domain step (when the raised point is
// legal too):
//
//   - more lanes never cost fewer LUT, FF, DSP or BRAM18K;
//   - a point that fails routing stays infeasible.
func TestPriceMetamorphic(t *testing.T) {
	dev := fpga.VU9P()
	ks, tasks := metamorphicKernels(t)
	var resourceChecks, routingChecks int
	for i, k := range ks {
		sp := space.Identify(k)
		an := hls.Analyze(k)
		price := func(pt space.Point) (hls.Report, bool) {
			d := sp.Directives(pt)
			if merlin.Check(k, d) != nil {
				return hls.Report{}, false
			}
			opts, widths := an.Directives(d)
			return an.Price(opts, widths, dev, tasks[i], hls.Options{}), true
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for legal, tries := 0, 0; legal < metamorphicPoints && tries < 50*metamorphicPoints; tries++ {
			pt := sp.RandomPoint(rng)
			base, ok := price(pt)
			if !ok {
				continue
			}
			legal++
			for j := range sp.Params {
				p := &sp.Params[j]
				ord := p.Ordinal(pt[p.Name])
				if p.Kind != space.FactorParallel || ord+1 >= p.Size() {
					continue
				}
				up := pt.Clone()
				up[p.Name] = p.ValueAt(ord + 1)
				raised, ok := price(up)
				if !ok {
					continue
				}
				resourceChecks++
				if raised.LUT < base.LUT || raised.FF < base.FF || raised.DSP < base.DSP || raised.BRAM18K < base.BRAM18K {
					t.Errorf("%s %s: raising %s to %d lowers resources: LUT %d->%d FF %d->%d DSP %d->%d BRAM18K %d->%d",
						k.Name, pt.Key(), p.Name, up[p.Name], base.LUT, raised.LUT, base.FF, raised.FF,
						base.DSP, raised.DSP, base.BRAM18K, raised.BRAM18K)
				}
				if base.Bottleneck == "routing-congestion" {
					routingChecks++
					if raised.Feasible {
						t.Errorf("%s %s: raising %s to %d makes a routing-congested point feasible",
							k.Name, pt.Key(), p.Name, up[p.Name])
					}
				}
			}
		}
	}
	t.Logf("%d resource checks, %d routing checks over %d kernels", resourceChecks, routingChecks, len(ks))
	if resourceChecks == 0 || routingChecks == 0 {
		t.Errorf("vacuous: %d resource checks, %d routing checks", resourceChecks, routingChecks)
	}
}
