package cir

import (
	"fmt"
	"strings"
	"testing"
)

// LoopShape returns a canonical signature of the loop hierarchy, e.g.
// "1(2(3)(3))" for a triply nested kernel. The DSE partitioner groups
// applications with geometrically similar hierarchies (paper §4.3.1).
func (ki *KernelInfo) LoopShape() string {
	var b strings.Builder
	var walk func(li *LoopInfo)
	walk = func(li *LoopInfo) {
		fmt.Fprintf(&b, "%d", li.Depth+1)
		if len(li.Children) > 0 {
			for _, c := range li.Children {
				b.WriteString("(")
				walk(c)
				b.WriteString(")")
			}
		}
	}
	for _, r := range ki.Roots {
		walk(r)
	}
	return b.String()
}

// nestKernel builds: task loop > i loop (trip 16) > j loop (trip 8) with
// a scalar fp accumulation carried by the j loop.
func nestKernel() *Kernel {
	j := &Loop{
		ID: "L2", Var: "j",
		Lo: &IntLit{K: Int, Val: 0}, Hi: &IntLit{K: Int, Val: 8}, Step: 1,
		Body: Block{&Assign{
			LHS: &VarRef{K: Double, Name: "acc"},
			RHS: &Binary{K: Double, Op: Add,
				L: &VarRef{K: Double, Name: "acc"},
				R: &Index{K: Double, Arr: "in", Idx: &VarRef{K: Int, Name: "j"}}},
		}},
	}
	i := &Loop{
		ID: "L1", Var: "i",
		Lo: &IntLit{K: Int, Val: 0}, Hi: &IntLit{K: Int, Val: 16}, Step: 1,
		Body: Block{j},
	}
	task := &Loop{
		ID: "L0", Var: "_task",
		Lo: &IntLit{K: Int, Val: 0}, Hi: &VarRef{K: Int, Name: "N"}, Step: 1,
		Body: Block{
			&Decl{Name: "acc", K: Double},
			i,
			&Assign{
				LHS: &Index{K: Double, Arr: "out", Idx: &VarRef{K: Int, Name: "_task"}},
				RHS: &VarRef{K: Double, Name: "acc"},
			},
		},
	}
	return &Kernel{
		Name: "nest", Pattern: PatternMap, TaskLoopID: "L0",
		Params: []Param{
			{Name: "in", Elem: Double, IsArray: true, Length: 8},
			{Name: "out", Elem: Double, IsArray: true, Length: 1, IsOutput: true},
		},
		Body: Block{task},
	}
}

func TestAnalyzeLoopTree(t *testing.T) {
	info := Analyze(nestKernel())
	if len(info.All) != 3 {
		t.Fatalf("loops = %d, want 3", len(info.All))
	}
	if len(info.Roots) != 1 || info.Roots[0].Loop.ID != "L0" {
		t.Fatal("root is not the task loop")
	}
	l0, l1, l2 := info.ByID["L0"], info.ByID["L1"], info.ByID["L2"]
	if l0.Depth != 0 || l1.Depth != 1 || l2.Depth != 2 {
		t.Errorf("depths = %d %d %d", l0.Depth, l1.Depth, l2.Depth)
	}
	if l0.Trip != 0 { // runtime bound
		t.Errorf("task trip = %d, want 0 (unknown)", l0.Trip)
	}
	if l1.Trip != 16 || l2.Trip != 8 {
		t.Errorf("trips = %d, %d", l1.Trip, l2.Trip)
	}
	if info.MaxDepth != 2 {
		t.Errorf("max depth = %d", info.MaxDepth)
	}
	if shape := info.LoopShape(); shape != "1(2(3))" {
		t.Errorf("shape = %q", shape)
	}
}

func TestAnalyzeScalarRecurrence(t *testing.T) {
	info := Analyze(nestKernel())
	l2 := info.ByID["L2"]
	if len(l2.ScalarRec) != 1 || l2.ScalarRec[0] != "acc" {
		t.Fatalf("L2 recurrences = %v", l2.ScalarRec)
	}
	// acc is declared inside the task loop body, so the task loop does
	// NOT carry it: each task re-initializes its accumulator.
	l0 := info.ByID["L0"]
	if len(l0.ScalarRec) != 0 {
		t.Errorf("task loop recurrences = %v, want none", l0.ScalarRec)
	}
	// Recurrence ops include the fp add.
	if l2.RecOps.FpAdd == 0 {
		t.Error("recurrence chain has no fp add")
	}
}

func TestAnalyzeOpCounts(t *testing.T) {
	info := Analyze(nestKernel())
	l2 := info.ByID["L2"]
	if l2.BodyOps.FpAdd < 1 || l2.BodyOps.Loads < 1 {
		t.Errorf("L2 body ops = %+v", l2.BodyOps)
	}
	l0 := info.ByID["L0"]
	if l0.SubtreeOps.FpAdd < l2.BodyOps.FpAdd {
		t.Error("subtree ops should include descendants")
	}
	if l0.BodyOps.Stores < 1 {
		t.Errorf("task body stores = %d", l0.BodyOps.Stores)
	}
}

func TestConstMulCountsAsShiftAdd(t *testing.T) {
	// Multiplication by a literal must not consume DSP-class IntMul.
	body := Block{&Assign{
		LHS: &VarRef{K: Int, Name: "x"},
		RHS: &Binary{K: Int, Op: Mul, L: &VarRef{K: Int, Name: "i"}, R: &IntLit{K: Int, Val: 129}},
	}}
	l := &Loop{ID: "L1", Var: "i", Lo: &IntLit{K: Int, Val: 0}, Hi: &IntLit{K: Int, Val: 4}, Step: 1,
		Body: append(Block{&Decl{Name: "x", K: Int}}, body...)}
	k := &Kernel{Name: "m", TaskLoopID: "L1", Body: Block{l}}
	info := Analyze(k)
	li := info.ByID["L1"]
	if li.BodyOps.IntMul != 0 {
		t.Errorf("const mul counted as IntMul: %+v", li.BodyOps)
	}
	// Variable-by-variable multiply does count.
	body2 := Block{
		&Decl{Name: "x", K: Int},
		&Assign{
			LHS: &VarRef{K: Int, Name: "x"},
			RHS: &Binary{K: Int, Op: Mul, L: &VarRef{K: Int, Name: "i"}, R: &VarRef{K: Int, Name: "x"}},
		}}
	l2 := &Loop{ID: "L1", Var: "i", Lo: &IntLit{K: Int, Val: 0}, Hi: &IntLit{K: Int, Val: 4}, Step: 1, Body: body2}
	info2 := Analyze(&Kernel{Name: "m", TaskLoopID: "L1", Body: Block{l2}})
	if info2.ByID["L1"].BodyOps.IntMul != 1 {
		t.Errorf("var mul not counted: %+v", info2.ByID["L1"].BodyOps)
	}
}

func TestTranscendentalFlag(t *testing.T) {
	l := &Loop{ID: "L1", Var: "i", Lo: &IntLit{K: Int, Val: 0}, Hi: &IntLit{K: Int, Val: 4}, Step: 1,
		Body: Block{
			&Decl{Name: "x", K: Double,
				Init: &Call{K: Double, Name: "exp", Args: []Expr{&FloatLit{K: Double, Val: 1}}}},
		}}
	outer := &Loop{ID: "L0", Var: "t", Lo: &IntLit{K: Int, Val: 0}, Hi: &IntLit{K: Int, Val: 2}, Step: 1,
		Body: Block{l}}
	info := Analyze(&Kernel{Name: "e", TaskLoopID: "L0", Body: Block{outer}})
	if !info.ByID["L1"].HasTranscendental {
		t.Error("inner loop transcendental not flagged")
	}
	if !info.ByID["L0"].HasTranscendental {
		t.Error("transcendental flag did not propagate to the outer loop")
	}
}

func TestLocalArraysInventory(t *testing.T) {
	k := &Kernel{Name: "a", TaskLoopID: "x", Body: Block{
		&ArrDecl{Name: "buf", Elem: Double, Len: 100},
	}}
	info := Analyze(k)
	if info.LocalArrays["buf"] != 800 {
		t.Errorf("buf bytes = %d, want 800", info.LocalArrays["buf"])
	}
}

func TestTripCount(t *testing.T) {
	cases := []struct {
		lo, hi int64
		step   int64
		want   int64
	}{
		{0, 16, 1, 16},
		{1, 129, 1, 128},
		{0, 10, 3, 4},
		{5, 5, 1, 0},
		{10, 5, 1, 0},
	}
	for _, c := range cases {
		l := &Loop{Lo: &IntLit{K: Int, Val: c.lo}, Hi: &IntLit{K: Int, Val: c.hi}, Step: c.step}
		if got := l.TripCount(); got != c.want {
			t.Errorf("trip(%d,%d,%d) = %d, want %d", c.lo, c.hi, c.step, got, c.want)
		}
	}
	dyn := &Loop{Lo: &IntLit{K: Int, Val: 0}, Hi: &VarRef{K: Int, Name: "N"}, Step: 1}
	if dyn.TripCount() != 0 {
		t.Error("dynamic bound should have trip 0")
	}
}
