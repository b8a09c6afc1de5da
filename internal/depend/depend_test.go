package depend

import (
	"fmt"
	"strings"
	"testing"

	"s2fa/internal/cir"
)

func intLit(v int64) *cir.IntLit { return &cir.IntLit{K: cir.Int, Val: v} }
func vref(n string) *cir.VarRef  { return &cir.VarRef{K: cir.Int, Name: n} }
func idx(arr string, e cir.Expr) *cir.Index {
	return &cir.Index{K: cir.Int, Arr: arr, Idx: e}
}
func add(l, r cir.Expr) *cir.Binary { return &cir.Binary{K: cir.Int, Op: cir.Add, L: l, R: r} }
func sub(l, r cir.Expr) *cir.Binary { return &cir.Binary{K: cir.Int, Op: cir.Sub, L: l, R: r} }
func mul(l, r cir.Expr) *cir.Binary { return &cir.Binary{K: cir.Int, Op: cir.Mul, L: l, R: r} }

func loop(id, v string, lo, hi int64, body ...cir.Stmt) *cir.Loop {
	return &cir.Loop{ID: id, Var: v, Lo: intLit(lo), Hi: intLit(hi), Step: 1, Body: body}
}

func kern(body ...cir.Stmt) *cir.Kernel {
	return &cir.Kernel{Name: "T", Body: body}
}

func verdictOf(t *testing.T, k *cir.Kernel, id string) *Verdict {
	t.Helper()
	v := Analyze(k).Verdict(id)
	if v == nil {
		t.Fatalf("no verdict for %s", id)
	}
	return v
}

// TestEdgeTable is the stopping-criteria-style matrix over the analysis
// edge cases: each row is one structural corner and its required verdict.
func TestEdgeTable(t *testing.T) {
	t.Run("independent copy is DOALL", func(t *testing.T) {
		k := kern(loop("L0", "i", 0, 128,
			&cir.Assign{LHS: idx("A", vref("i")), RHS: idx("B", vref("i"))},
		))
		v := verdictOf(t, k, "L0")
		if v.Kind != DOALL || len(v.RaceCarried) != 0 {
			t.Fatalf("want DOALL, got %s (carried %v)", v.Describe(), v.RaceCarried)
		}
	})

	t.Run("stride-2 recurrence has distance 2", func(t *testing.T) {
		k := kern(loop("L0", "i", 2, 128,
			&cir.Assign{LHS: idx("A", vref("i")), RHS: add(idx("A", sub(vref("i"), intLit(2))), intLit(1))},
		))
		v := verdictOf(t, k, "L0")
		if v.Kind != Pipeline || v.MinDist != 2 {
			t.Fatalf("want pipeline distance 2, got %s", v.Describe())
		}
		if len(v.RaceCarried) != 1 || v.RaceCarried[0] != "A" {
			t.Fatalf("carried = %v", v.RaceCarried)
		}
	})

	t.Run("loop-invariant location carries at distance 1", func(t *testing.T) {
		k := kern(loop("L0", "i", 0, 128,
			&cir.Assign{LHS: idx("A", intLit(5)), RHS: add(idx("A", intLit(5)), idx("B", vref("i")))},
		))
		v := verdictOf(t, k, "L0")
		if v.Kind != Pipeline || v.MinDist != 1 {
			t.Fatalf("want pipeline distance 1, got %s", v.Describe())
		}
	})

	t.Run("zero-trip loop is DOALL", func(t *testing.T) {
		k := kern(loop("L0", "i", 5, 5,
			&cir.Assign{LHS: idx("A", intLit(0)), RHS: add(idx("A", intLit(0)), intLit(1))},
		))
		v := verdictOf(t, k, "L0")
		if v.Kind != DOALL {
			t.Fatalf("zero-trip loop: want DOALL, got %s", v.Describe())
		}
	})

	t.Run("single-trip loop is DOALL", func(t *testing.T) {
		k := kern(loop("L0", "i", 3, 4,
			&cir.Assign{LHS: idx("A", intLit(0)), RHS: add(idx("A", intLit(0)), intLit(1))},
		))
		v := verdictOf(t, k, "L0")
		if v.Kind != DOALL {
			t.Fatalf("single-trip loop: want DOALL, got %s", v.Describe())
		}
	})

	t.Run("non-positive step is conservative Sequential", func(t *testing.T) {
		l := loop("L0", "i", 0, 128,
			&cir.Assign{LHS: idx("A", vref("i")), RHS: idx("A", add(vref("i"), intLit(1)))},
		)
		l.Step = -1
		k := kern(l)
		v := verdictOf(t, k, "L0")
		if v.Kind != Sequential {
			t.Fatalf("negative step: want Sequential, got %s", v.Describe())
		}
		if len(v.RaceCarried) != 1 || v.RaceCarried[0] != "A" {
			t.Fatalf("negative step carried = %v", v.RaceCarried)
		}
	})

	t.Run("non-affine subscript is Sequential", func(t *testing.T) {
		k := kern(loop("L0", "i", 0, 128,
			&cir.Assign{LHS: idx("A", mul(vref("i"), vref("i"))), RHS: idx("A", vref("i"))},
		))
		v := verdictOf(t, k, "L0")
		if v.Kind != Sequential || !strings.Contains(v.Witness, "non-affine") {
			t.Fatalf("want Sequential(non-affine), got %s", v.Describe())
		}
	})

	t.Run("unbounded scalar subscript is Sequential", func(t *testing.T) {
		k := kern(
			&cir.Decl{Name: "p", K: cir.Int, Init: vref("n")}, // unknown value
			loop("L0", "i", 0, 128,
				&cir.Assign{LHS: idx("A", vref("p")), RHS: add(idx("A", vref("q")), intLit(1))},
			),
		)
		v := verdictOf(t, k, "L0")
		if v.Kind != Sequential {
			t.Fatalf("unbounded scalar: want Sequential, got %s", v.Describe())
		}
	})

	t.Run("distinct buffers never conflict", func(t *testing.T) {
		k := kern(loop("L0", "i", 0, 128,
			&cir.Assign{LHS: idx("A", vref("i")), RHS: idx("B", vref("i"))},
		))
		if v := verdictOf(t, k, "L0"); v.Kind != DOALL {
			t.Fatalf("distinct buffers: want DOALL, got %s", v.Describe())
		}
	})

	t.Run("iteration-local arrays are exempt", func(t *testing.T) {
		k := kern(loop("L0", "t", 0, 16,
			&cir.ArrDecl{Name: "H", Elem: cir.Int, Len: 64},
			loop("L1", "i", 1, 64,
				&cir.Assign{LHS: idx("H", vref("i")), RHS: idx("H", sub(vref("i"), intLit(1)))},
			),
		))
		a := Analyze(k)
		if v := a.Verdict("L0"); v.Kind != DOALL {
			t.Fatalf("task loop with local array: want DOALL, got %s", v.Describe())
		}
		if v := a.Verdict("L1"); v.Kind != Pipeline || v.MinDist != 1 {
			t.Fatalf("inner loop: want pipeline distance 1, got %s", a.Verdict("L1").Describe())
		}
	})

	t.Run("read-modify-write of the same element is DOALL", func(t *testing.T) {
		k := kern(
			&cir.ArrDecl{Name: "H", Elem: cir.Int, Len: 64},
			loop("L1", "i", 1, 64,
				&cir.Assign{LHS: idx("H", vref("i")), RHS: idx("H", vref("i"))},
			),
		)
		v := verdictOf(t, k, "L1")
		if v.Kind != DOALL || len(v.RaceCarried) != 0 {
			t.Fatalf("H[i] = H[i]: want DOALL, got %s (carried %v)", v.Describe(), v.RaceCarried)
		}
	})

	t.Run("array local to the outer body is carried only by the inner stencil", func(t *testing.T) {
		k := kern(loop("L9", "t", 0, 4,
			&cir.ArrDecl{Name: "H", Elem: cir.Int, Len: 64},
			loop("L1", "i", 1, 64,
				&cir.Assign{LHS: idx("H", vref("i")), RHS: idx("H", sub(vref("i"), intLit(1)))},
			),
		))
		k.TaskLoopID = "L9"
		a := Analyze(k)
		if got := fmt.Sprint(a.Verdict("L9").RaceCarried); got != "[]" {
			t.Fatalf("outer loop carries %s through its iteration-local array", got)
		}
		if got := fmt.Sprint(a.Verdict("L1").RaceCarried); got != "[H]" {
			t.Fatalf("inner stencil carries %s, want [H]", got)
		}
	})
}

// TestOuterCancellation checks the multivariate side: a row-above read is
// independent at the column loop (distance exceeds the trip count) but
// carried at the row loop.
func TestOuterCancellation(t *testing.T) {
	cell := func(di, dj int64) cir.Expr {
		i, j := cir.Expr(vref("i")), cir.Expr(vref("j"))
		if di != 0 {
			i = sub(vref("i"), intLit(di))
		}
		if dj != 0 {
			j = sub(vref("j"), intLit(dj))
		}
		return add(mul(i, intLit(129)), j)
	}
	k := kern(loop("L1", "i", 1, 129,
		loop("L2", "j", 1, 129,
			&cir.Assign{LHS: idx("H", cell(0, 0)), RHS: idx("H", cell(1, 0))},
		),
	))
	a := Analyze(k)
	if v := a.Verdict("L2"); v.Kind != DOALL {
		t.Fatalf("column loop: row-above read should be independent, got %s", v.Describe())
	}
	if v := a.Verdict("L1"); v.Kind != Pipeline || v.MinDist != 1 {
		t.Fatalf("row loop: want pipeline distance 1, got %s", a.Verdict("L1").Describe())
	}

	// The left-neighbor read flips the result: carried at the column
	// loop with distance 1.
	k2 := kern(loop("L1", "i", 1, 129,
		loop("L2", "j", 1, 129,
			&cir.Assign{LHS: idx("H", cell(0, 0)), RHS: idx("H", cell(0, 1))},
		),
	))
	if v := Analyze(k2).Verdict("L2"); v.Kind != Pipeline || v.MinDist != 1 {
		t.Fatalf("left-neighbor read: want pipeline distance 1, got %s", v.Describe())
	}
}

// TestGuardWindowDisjointness replicates the S-W traceback shape: writes
// at out[t*W + p] with p proven in [0, W-1] by a constant initializer, a
// monotone decrement, and a while-guard conjunct. The task loop is DOALL
// exactly when the window width covers the scalar range.
func TestGuardWindowDisjointness(t *testing.T) {
	build := func(width int64) *cir.Kernel {
		return kern(loop("L0", "t", 0, 16,
			&cir.Decl{Name: "p", K: cir.Int, Init: sub(intLit(256), intLit(1))},
			&cir.While{
				Cond: &cir.Binary{K: cir.Bool, Op: cir.Ge, L: vref("p"), R: intLit(0)},
				Body: cir.Block{
					&cir.Assign{
						LHS: idx("out", add(mul(vref("t"), intLit(width)), vref("p"))),
						RHS: intLit(1),
					},
					&cir.Assign{LHS: vref("p"), RHS: sub(vref("p"), intLit(1))},
				},
			},
		))
	}
	if v := Analyze(build(256)).Verdict("L0"); v.Kind != DOALL {
		t.Fatalf("width 256 covers p in [0,255]: want DOALL, got %s", v.Describe())
	}
	if v := Analyze(build(200)).Verdict("L0"); v.Kind == DOALL {
		t.Fatalf("width 200 overlaps p in [0,255]: DOALL is unsound")
	}
}

// TestGuardKilledByReassignment: a guard constraint must not survive a
// write to the guarded scalar that happens before the access.
func TestGuardKilledByReassignment(t *testing.T) {
	k := kern(loop("L0", "t", 0, 16,
		&cir.Decl{Name: "p", K: cir.Int, Init: sub(intLit(256), intLit(1))},
		&cir.While{
			Cond: &cir.Binary{K: cir.Bool, Op: cir.Ge, L: vref("p"), R: intLit(0)},
			Body: cir.Block{
				// Decrement first: at the write p may be -1, outside the
				// window, so iterations of t can touch a neighbor's slot.
				&cir.Assign{LHS: vref("p"), RHS: sub(vref("p"), intLit(1))},
				&cir.Assign{
					LHS: idx("out", add(mul(vref("t"), intLit(256)), vref("p"))),
					RHS: intLit(1),
				},
			},
		},
	))
	if v := Analyze(k).Verdict("L0"); v.Kind == DOALL {
		t.Fatalf("guard constraint must die after p is reassigned; DOALL is unsound")
	}
}

// TestBreakRefinement covers the structurer's lowering of short-circuit
// while-guards: the real condition lives behind a boolean flag temp and
// an `if (!(flag)) break;`, so the window bound on the traceback cursor
// must be recovered from the flag's set path.
func TestBreakRefinement(t *testing.T) {
	// while (1) { $t1 = 0; if ($t2) { if (p >= 0) { $t1 = 1 } }
	//             if (!($t1)) break;  out[t*W + p] = 1;  p = p - 1 }
	build := func(width int64, mutate func(body cir.Block) cir.Block) *cir.Kernel {
		body := cir.Block{
			&cir.Assign{LHS: vref("$t1"), RHS: intLit(0)},
			&cir.If{
				Cond: vref("$t2"),
				Then: cir.Block{&cir.If{
					Cond: &cir.Binary{K: cir.Bool, Op: cir.Ge, L: vref("p"), R: intLit(0)},
					Then: cir.Block{&cir.Assign{LHS: vref("$t1"), RHS: intLit(1)}},
				}},
			},
			&cir.If{
				Cond: &cir.Unary{Op: cir.Not, X: vref("$t1")},
				Then: cir.Block{&cir.Break{}},
			},
			&cir.Assign{
				LHS: idx("out", add(mul(vref("t"), intLit(width)), vref("p"))),
				RHS: intLit(1),
			},
			&cir.Assign{LHS: vref("p"), RHS: sub(vref("p"), intLit(1))},
		}
		if mutate != nil {
			body = mutate(body)
		}
		return kern(loop("L0", "t", 0, 16,
			&cir.Decl{Name: "p", K: cir.Int, Init: intLit(255)},
			&cir.Decl{Name: "$t1", K: cir.Char},
			&cir.Decl{Name: "$t2", K: cir.Char, Init: intLit(1)},
			&cir.While{Cond: intLit(1), Body: body},
		))
	}

	t.Run("window covered through flag temp is DOALL", func(t *testing.T) {
		if v := Analyze(build(256, nil)).Verdict("L0"); v.Kind != DOALL {
			t.Fatalf("flag-guarded p in [0,255], width 256: want DOALL, got %s", v.Describe())
		}
	})
	t.Run("narrow window still overlaps", func(t *testing.T) {
		if v := Analyze(build(200, nil)).Verdict("L0"); v.Kind == DOALL {
			t.Fatalf("width 200 overlaps p in [0,255]: DOALL is unsound")
		}
	})
	t.Run("second set-site poisons the flag pattern", func(t *testing.T) {
		k := build(256, func(body cir.Block) cir.Block {
			// An unconditional `$t1 = 1` after the guarded one: flag no
			// longer implies p >= 0.
			extra := &cir.Assign{LHS: vref("$t1"), RHS: intLit(1)}
			return append(cir.Block{body[0], body[1], extra}, body[2:]...)
		})
		if v := Analyze(k).Verdict("L0"); v.Kind == DOALL {
			t.Fatalf("poisoned flag pattern must not prove the window")
		}
	})
	t.Run("guard var assigned before check drops the bound", func(t *testing.T) {
		k := build(256, func(body cir.Block) cir.Block {
			// p decremented between the flag set and the break-check: at
			// the write p may be -1.
			dec := &cir.Assign{LHS: vref("p"), RHS: sub(vref("p"), intLit(1))}
			return append(cir.Block{body[0], body[1], dec}, body[2:]...)
		})
		if v := Analyze(k).Verdict("L0"); v.Kind == DOALL {
			t.Fatalf("bound on reassigned guard var must be dropped")
		}
	})
}

func TestScalarClassification(t *testing.T) {
	t.Run("canonical reduction stays DOALL", func(t *testing.T) {
		k := kern(
			&cir.Decl{Name: "s", K: cir.Int},
			loop("L0", "i", 0, 128,
				&cir.Assign{LHS: vref("s"), RHS: add(vref("s"), idx("A", vref("i")))},
			),
		)
		v := verdictOf(t, k, "L0")
		if v.Kind != DOALL || len(v.Reductions) != 1 || v.Reductions[0] != "s" {
			t.Fatalf("want DOALL(reduction s), got %s", v.Describe())
		}
	})

	t.Run("non-reduction recurrence pipelines at distance 1", func(t *testing.T) {
		k := kern(
			&cir.Decl{Name: "s", K: cir.Int},
			loop("L0", "i", 0, 128,
				&cir.Assign{LHS: vref("s"), RHS: add(vref("s"), idx("A", vref("i")))},
				&cir.Assign{LHS: vref("s"), RHS: add(vref("s"), intLit(1))},
			),
		)
		v := verdictOf(t, k, "L0")
		if v.Kind != Pipeline || v.MinDist != 1 || len(v.ScalarSeq) == 0 {
			t.Fatalf("want pipeline(scalar chain), got %s", v.Describe())
		}
	})

	t.Run("conditional overwrite is a select chain", func(t *testing.T) {
		k := kern(
			&cir.Decl{Name: "m", K: cir.Int},
			loop("L0", "i", 0, 128,
				&cir.If{
					Cond: &cir.Binary{K: cir.Bool, Op: cir.Gt, L: idx("A", vref("i")), R: vref("m")},
					Then: cir.Block{&cir.Assign{LHS: vref("m"), RHS: idx("A", vref("i"))}},
				},
			),
		)
		v := verdictOf(t, k, "L0")
		if v.Kind != DOALL || len(v.SelectChains) != 1 || v.SelectChains[0] != "m" {
			t.Fatalf("want DOALL(select-chain m), got %s", v.Describe())
		}
	})
}

func TestReduceOutputExemption(t *testing.T) {
	k := &cir.Kernel{
		Name:       "R",
		Pattern:    cir.PatternReduce,
		TaskLoopID: "L0",
		Params:     []cir.Param{{Name: "out", Elem: cir.Int, IsArray: true, IsOutput: true}},
		Body: cir.Block{loop("L0", "t", 0, 16,
			loop("L1", "j", 0, 8,
				&cir.Assign{LHS: idx("out", vref("j")), RHS: add(idx("out", vref("j")), idx("g", vref("j")))},
			),
		)},
	}
	a := Analyze(k)
	v := a.Verdict("L0")
	if v.Kind != Pipeline || len(v.RaceCarried) != 1 || v.RaceCarried[0] != "out" {
		t.Fatalf("task loop: want pipeline carried[out], got %s", v.Describe())
	}
	if eff := a.EffectiveRace("L0"); len(eff) != 0 {
		t.Fatalf("reduce-output exemption failed: %v", eff)
	}
	if a.Serializing("L1") {
		t.Fatalf("inner combine loop writes out[j] reading out[j]: same iteration only; should NOT serialize")
	}
}

func TestTableRendering(t *testing.T) {
	k := kern(loop("L0", "i", 2, 128,
		&cir.Assign{
			LHS: &cir.Index{K: cir.Int, Arr: "A", Idx: vref("i"), Pos: cir.Pos{Line: 7, Col: 3}},
			RHS: add(&cir.Index{K: cir.Int, Arr: "A", Idx: sub(vref("i"), intLit(2)), Pos: cir.Pos{Line: 7, Col: 12}}, intLit(1)),
		},
	))
	tab := Analyze(k).Table()
	for _, want := range []string{"L0", "distance 2", "@7:3", "@7:12", "A[(i - 2)]"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}
