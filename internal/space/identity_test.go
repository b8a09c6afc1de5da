package space_test

import (
	"math"
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// identityKernel is one kernel whose space the identity tests sample.
type identityKernel struct {
	name  string
	k     *cir.Kernel
	tasks int64
}

// identityKernels returns every workload plus a seeded sample of
// generated kernels.
func identityKernels(t *testing.T) []identityKernel {
	t.Helper()
	var ks []identityKernel
	for _, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, identityKernel{a.Name, k, int64(a.Tasks)})
	}
	for _, g := range kdslgen.Generate(18, 6) {
		cls, err := kdsl.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		k, err := b2c.Compile(cls)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		ks = append(ks, identityKernel{g.Name, k, 512})
	}
	return ks
}

// samplePoints returns points of sp in every form an identity must
// handle, with repeats: random points and their clones, both seeds
// twice, one-parameter moves to the lowest domain value (the shape of
// the prune guard's class representatives), partial points, points
// carrying a foreign name with and without the space's arity, a value
// just outside int32 next to the in-range value it wraps to, and the
// empty point.
func samplePoints(sp *space.Space, rng *rand.Rand) []space.Point {
	var pts []space.Point
	for i := 0; i < 30; i++ {
		pt := sp.RandomPoint(rng)
		pts = append(pts, pt, pt.Clone())
	}
	pts = append(pts, sp.PerformanceSeed(), sp.AreaSeed(), sp.PerformanceSeed(), sp.AreaSeed())
	var over int64 = math.MaxInt32 + 1
	for _, base := range pts { // the points above; range reads pts once
		p := &sp.Params[rng.Intn(len(sp.Params))]
		moved := base.Clone()
		moved[p.Name] = p.ValueAt(0)
		partial := base.Clone()
		delete(partial, p.Name)
		foreign := base.Clone()
		foreign["foreign.param"] = base[p.Name]
		swapped := partial.Clone()
		swapped["foreign.param"] = base[p.Name]
		wide := base.Clone()
		wide[p.Name] = int(over)
		wrapped := base.Clone()
		wrapped[p.Name] = math.MinInt32
		pts = append(pts, moved, partial, foreign, swapped, wide, wrapped)
	}
	return append(pts, space.Point{}, space.Point{})
}

// checkIdentity fails t unless id gives two points of pts the same
// identity exactly when their Keys are equal.
func checkIdentity[I comparable](t *testing.T, name string, pts []space.Point, id func(space.Point) I) {
	t.Helper()
	byKey := map[string]I{}
	byID := map[I]string{}
	for _, pt := range pts {
		key, got := pt.Key(), id(pt)
		if prev, ok := byKey[key]; ok && prev != got {
			t.Fatalf("%s: point %s has two identities", name, key)
		}
		if prev, ok := byID[got]; ok && prev != key {
			t.Fatalf("%s: points %s and %s share an identity", name, prev, key)
		}
		byKey[key], byID[got] = got, key
	}
}

// partitions returns the decision-tree partitions a seed-1 DSE run
// with the default partition config searches. A one-evaluation budget
// ends the search right after training; the tree is built before the
// search starts, so the budget does not change it.
func partitions(sp *space.Space, k *cir.Kernel, eval tuner.Evaluator) []dse.Partition {
	pc := dse.DefaultPartitionConfig()
	return dse.Run(k, sp, eval, dse.Config{Partition: &pc, Seed: 1, MaxEvaluations: 1}).Partitions
}

// TestIdentityMatchesKey is the identity's contract over the 12
// workloads and seeded generated kernels: two points get the same code
// and the same table ID exactly when their Keys are equal, and a point
// has the same code in the full space as in every partition sub-box a
// seed-1 S2FA run carves from it.
func TestIdentityMatchesKey(t *testing.T) {
	for _, ik := range identityKernels(t) {
		sp := space.Identify(ik.k)
		rng := rand.New(rand.NewSource(7))
		pts := samplePoints(sp, rng)
		eval := dse.NewEvaluator(ik.k, sp, fpga.VU9P(), ik.tasks, hls.Options{})
		parts := partitions(sp, ik.k, eval)
		subs := 0
		for _, p := range parts {
			if len(p.Constraints) == 0 {
				continue
			}
			sub := p.Space(sp)
			subs++
			subPts := samplePoints(sub, rng)
			for _, pt := range append(subPts, pts...) {
				if got, want := string(sub.AppendCode(nil, pt)), string(sp.AppendCode(nil, pt)); got != want {
					t.Fatalf("%s partition %s: point %s coded %q, full space %q", ik.name, p, pt.Key(), got, want)
				}
			}
			pts = append(pts, subPts...)
		}
		if len(parts) > 1 && subs == 0 {
			t.Fatalf("%s: %d partitions, none restricted", ik.name, len(parts))
		}
		checkIdentity(t, ik.name+" code", pts, func(pt space.Point) string { return string(sp.AppendCode(nil, pt)) })
		tab := space.NewTable(sp)
		checkIdentity(t, ik.name+" table", pts, tab.ID)
	}
}

// TestTableLookupDoesNotAllocate pins the hot path every DSE table
// shares: identifying a point the table already holds, and testing an
// ID set, allocate nothing.
func TestTableLookupDoesNotAllocate(t *testing.T) {
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	tab := space.NewTable(sp)
	pt := sp.PerformanceSeed()
	var set space.IDSet
	set.Add(tab.ID(pt))
	if n := testing.AllocsPerRun(100, func() {
		if !set.Has(tab.ID(pt)) {
			t.Fatal("seen point missing from the set")
		}
	}); n != 0 {
		t.Errorf("looking up a seen S-W point allocates %.1f times, want 0", n)
	}
}
