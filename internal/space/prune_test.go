// External test package: the test drives PruneStatic with real compiled
// workloads, and importing apps from package space would cycle through
// b2c -> lint -> space.
package space_test

import (
	"math"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/lint"
	"s2fa/internal/space"
)

// TestPruneStaticSW: Smith-Waterman is the workload with a provably
// illegal domain value — pipeline=flatten on the nest containing the
// variable-trip while traceback. PruneStatic must drop exactly that value
// and nothing else.
func TestPruneStaticSW(t *testing.T) {
	a := apps.Get("S-W")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	pruned, n := space.PruneStatic(sp, lint.NewChecker(k))
	if n != 1 {
		t.Fatalf("pruned %d domain values, want exactly 1 (flatten over the while traceback)", n)
	}
	if pruned == sp {
		t.Fatal("PruneStatic returned the original space despite pruning")
	}

	info := cir.Analyze(k)
	var shrunk []string
	for i := range sp.Params {
		orig := &sp.Params[i]
		got := pruned.Param(orig.Name)
		if got == nil {
			t.Fatalf("pruned space lost parameter %q", orig.Name)
		}
		if got.Size() == orig.Size() {
			continue
		}
		shrunk = append(shrunk, orig.Name)
		if orig.Kind != space.FactorPipeline {
			t.Errorf("non-pipeline parameter %q shrunk (%d -> %d)", orig.Name, orig.Size(), got.Size())
			continue
		}
		if got.Contains(space.PipeFlattenVal) {
			t.Errorf("%q still contains the flatten mode after pruning", orig.Name)
		}
		if got.Size() != orig.Size()-1 {
			t.Errorf("%q lost %d values, want 1", orig.Name, orig.Size()-got.Size())
		}
		li := info.ByID[orig.LoopID]
		if li == nil || !li.HasWhile {
			t.Errorf("flatten pruned from loop %s, which has no while in its subtree", orig.LoopID)
		}
	}
	if len(shrunk) != 1 {
		t.Fatalf("parameters shrunk = %v, want exactly one", shrunk)
	}

	wantCard := sp.Cardinality() * 2.0 / 3.0 // one pipeline enum 3 -> 2
	if got := pruned.Cardinality(); math.Abs(got-wantCard) > 1e-9*wantCard {
		t.Errorf("pruned cardinality %.6g, want %.6g", got, wantCard)
	}
}

// TestPruneStaticNoOp: a workload with no statically illegal values must
// come back untouched — same space pointer, zero count — so callers can
// detect the no-op cheaply.
func TestPruneStaticNoOp(t *testing.T) {
	for _, name := range []string{"KMeans", "AES", "LR"} {
		a := apps.Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sp := space.Identify(k)
		pruned, n := space.PruneStatic(sp, lint.NewChecker(k))
		if n != 0 || pruned != sp {
			t.Errorf("%s: PruneStatic pruned %d values (same pointer: %v), want a no-op", name, n, pruned == sp)
		}
	}
}

// TestPruneStaticPreservesLegalPoints: every point of the pruned space is
// a valid point of the original (pruning only removes, never remaps).
func TestPruneStaticPreservesLegalPoints(t *testing.T) {
	a := apps.Get("S-W")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	pruned, _ := space.PruneStatic(sp, lint.NewChecker(k))
	for i := range pruned.Params {
		p := &pruned.Params[i]
		parent := sp.Param(p.Name)
		for ord := 0; ord < p.Size(); ord++ {
			if !parent.Contains(p.ValueAt(ord)) {
				t.Errorf("pruned %s value %d is not in the original domain", p.Name, p.ValueAt(ord))
			}
		}
	}
}
