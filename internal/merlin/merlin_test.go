package merlin_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/cir"
	"s2fa/internal/merlin"
)

// execKernel runs a kernel over generated inputs and returns its output
// buffers.
func execKernel(t *testing.T, a *apps.App, k *cir.Kernel, n int) map[string][]cir.Value {
	t.Helper()
	cls, err := a.Class()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	tasks := a.Gen(rng, n)
	layout := blaze.Layout{Class: cls, Kernel: k}
	bufs, err := layout.Serialize(tasks)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range layout.AllocOutputs(n) {
		bufs[name] = out
	}
	ev := cir.NewEvaluator(k)
	ev.MaxSteps = 2_000_000_000
	if err := ev.Execute(n, bufs); err != nil {
		t.Fatalf("execute: %v", err)
	}
	return bufs
}

func compareOutputs(t *testing.T, k *cir.Kernel, base, xf map[string][]cir.Value) {
	t.Helper()
	for _, p := range k.Params {
		if !p.IsOutput {
			continue
		}
		b, x := base[p.Name], xf[p.Name]
		if len(b) != len(x) {
			t.Fatalf("output %s: length %d vs %d", p.Name, len(b), len(x))
		}
		for i := range b {
			if p.Elem.IsFloat() {
				d := math.Abs(b[i].AsFloat() - x[i].AsFloat())
				tol := 1e-6 * (1 + math.Abs(b[i].AsFloat()))
				if d > tol {
					t.Fatalf("output %s[%d]: %v vs %v", p.Name, i, b[i], x[i])
				}
			} else if b[i].AsInt() != x[i].AsInt() {
				t.Fatalf("output %s[%d]: %v vs %v", p.Name, i, b[i], x[i])
			}
		}
	}
}

// TestMaterializeSemanticsAllApps is the transformation-correctness
// backbone: for every workload, materialized Merlin rewrites (task-loop
// unrolling with remainder guards, tiling with non-dividing factors,
// inner-loop unrolling including tree reductions) must preserve kernel
// semantics exactly (up to fp reassociation tolerance).
func TestMaterializeSemanticsAllApps(t *testing.T) {
	const n = 5 // deliberately not divisible by the unroll factors
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			k, err := a.Kernel()
			if err != nil {
				t.Fatal(err)
			}
			base := execKernel(t, a, k, n)

			d := merlin.Directives{Loops: map[string]cir.LoopOpt{}, BitWidths: map[string]int{}}
			d.Loops[k.TaskLoopID] = cir.LoopOpt{Parallel: 3, Pipeline: cir.PipeOn}
			inner := 0
			for _, li := range k.Loops() {
				if li.ID == k.TaskLoopID || li.TripCount() < 4 {
					continue
				}
				switch inner % 2 {
				case 0:
					d.Loops[li.ID] = cir.LoopOpt{Tile: 3}
				case 1:
					d.Loops[li.ID] = cir.LoopOpt{Parallel: 4, Pipeline: cir.PipeOn}
				}
				inner++
			}
			xk, err := merlin.Materialize(k, d)
			if err != nil {
				t.Fatalf("materialize: %v", err)
			}
			xf := execKernel(t, a, xk, n)
			compareOutputs(t, k, base, xf)
		})
	}
}

// TestFlattenSemantics checks flatten (full sub-loop unrolling) on the
// nested ML kernels.
func TestFlattenSemantics(t *testing.T) {
	for _, name := range []string{"KMeans", "KNN", "LR"} {
		name := name
		t.Run(name, func(t *testing.T) {
			a := apps.Get(name)
			k, err := a.Kernel()
			if err != nil {
				t.Fatal(err)
			}
			base := execKernel(t, a, k, 4)
			d := merlin.Directives{Loops: map[string]cir.LoopOpt{
				k.TaskLoopID: {Pipeline: cir.PipeFlatten},
			}}
			xk, err := merlin.Materialize(k, d)
			if err != nil {
				t.Fatalf("flatten: %v", err)
			}
			if len(xk.FindLoop(k.TaskLoopID).Body) == 0 {
				t.Fatal("flattened task loop is empty")
			}
			for _, li := range xk.Loops() {
				if li.ID != k.TaskLoopID {
					t.Fatalf("sub-loop %s survived flatten", li.ID)
				}
			}
			xf := execKernel(t, a, xk, 4)
			compareOutputs(t, k, base, xf)
		})
	}
}

// TestTreeReductionShape checks that unrolling an additive reduction loop
// produces a balanced combine rather than a serial chain.
func TestTreeReductionShape(t *testing.T) {
	a := apps.Get("LR")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	// Find the dot-product loop: depth 1, additive scalar recurrence.
	info := cir.Analyze(k)
	var target string
	for _, li := range info.All {
		if li.Depth == 1 && len(li.ScalarRec) > 0 {
			target = li.Loop.ID
			break
		}
	}
	if target == "" {
		t.Fatal("no reduction loop found in LR")
	}
	d := merlin.Directives{Loops: map[string]cir.LoopOpt{target: {Parallel: 4}}}
	xk, err := merlin.Materialize(k, d)
	if err != nil {
		t.Fatal(err)
	}
	// The materialized kernel must contain the partial-accumulator array.
	found := false
	var walk func(b cir.Block)
	walk = func(b cir.Block) {
		for _, s := range b {
			switch s := s.(type) {
			case *cir.ArrDecl:
				if len(s.Name) > 4 && s.Name[len(s.Name)-4:] != "" && containsSub(s.Name, "_tr_") {
					found = true
				}
			case *cir.If:
				walk(s.Then)
				walk(s.Else)
			case *cir.Loop:
				walk(s.Body)
			case *cir.While:
				walk(s.Body)
			}
		}
	}
	walk(xk.Body)
	if !found {
		t.Errorf("tree-reduction partial accumulator not materialized")
	}
	base := execKernel(t, a, k, 3)
	xf := execKernel(t, a, xk, 3)
	compareOutputs(t, k, base, xf)
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAnnotateValidation checks directive validation errors.
func TestAnnotateValidation(t *testing.T) {
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := merlin.Annotate(k, merlin.Directives{
		Loops: map[string]cir.LoopOpt{"no-such-loop": {}},
	}); err == nil {
		t.Error("unknown loop accepted")
	}
	if _, err := merlin.Annotate(k, merlin.Directives{
		BitWidths: map[string]int{"in": 100},
	}); err == nil {
		t.Error("non-power-of-two bitwidth accepted")
	}
	if _, err := merlin.Annotate(k, merlin.Directives{
		BitWidths: map[string]int{"in": 1024},
	}); err == nil {
		t.Error("oversized bitwidth accepted")
	}
	// Parallel factor beyond trip count must be rejected (Table 1).
	var innerID string
	for _, l := range k.Loops() {
		if l.ID != k.TaskLoopID && l.TripCount() > 0 {
			innerID = l.ID
			break
		}
	}
	if _, err := merlin.Annotate(k, merlin.Directives{
		Loops: map[string]cir.LoopOpt{innerID: {Parallel: 100000}},
	}); err == nil {
		t.Error("oversized parallel factor accepted")
	}
}

// TestCheckRejectsDeterministically feeds directive sets with several
// errors each. Check (and Annotate, which runs it) must report the same
// error on every call — the first in loop preorder, then unknown loops,
// then parameters in declaration order, then unknown parameters — rather
// than whichever error map iteration happens to reach first.
func TestCheckRejectsDeterministically(t *testing.T) {
	a := apps.Get("KMeans")
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	var innerID string
	for _, l := range k.Loops() {
		if l.ID != k.TaskLoopID && l.TripCount() > 0 {
			innerID = l.ID
			break
		}
	}
	cases := []struct {
		name string
		d    merlin.Directives
		want error
	}{
		{"factor before unknown loop and widths", merlin.Directives{
			Loops:     map[string]cir.LoopOpt{"no-such-loop": {}, innerID: {Parallel: 100000}, "zz-loop": {}},
			BitWidths: map[string]int{"in": 100, "no-such-param": 64},
		}, merlin.ErrIllegalFactor},
		{"unknown loop before widths", merlin.Directives{
			Loops:     map[string]cir.LoopOpt{"no-such-loop": {}, innerID: {Parallel: 2}, "zz-loop": {}},
			BitWidths: map[string]int{"in": 100, "no-such-param": 64},
		}, merlin.ErrUnknownLoop},
		{"illegal width before unknown parameter", merlin.Directives{
			BitWidths: map[string]int{"in": 100, "no-such-param": 64, "zz-param": 64},
		}, merlin.ErrIllegalBitWidth},
		{"unknown parameters", merlin.Directives{
			BitWidths: map[string]int{"in": 64, "no-such-param": 64, "zz-param": 64},
		}, merlin.ErrUnknownParam},
	}
	for _, c := range cases {
		first := merlin.Check(k, c.d)
		if !errors.Is(first, c.want) {
			t.Errorf("%s: Check = %v, want %v", c.name, first, c.want)
			continue
		}
		for i := 0; i < 100; i++ {
			if err := merlin.Check(k, c.d); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s: call %d: Check = %v, first call %v", c.name, i, err, first)
			}
			if _, err := merlin.Annotate(k, c.d); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s: call %d: Annotate = %v, Check %v", c.name, i, err, first)
			}
		}
	}
}
