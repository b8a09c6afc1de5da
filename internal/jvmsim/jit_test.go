package jvmsim

import (
	"math"
	"reflect"
	"testing"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// jitVM returns a VM of cls switched to compiled execution.
func jitVM(t *testing.T, cls *bytecode.Class) *VM {
	t.Helper()
	vm := New(cls)
	if !vm.TryJIT() {
		t.Fatal("TryJIT = false")
	}
	return vm
}

// diffCall runs the same input through a fresh interpreter VM and a
// fresh JIT VM of cls (both with maxSteps, zero meaning the default)
// and asserts byte-identical outputs, errors, and Counts.
func diffCall(t *testing.T, cls *bytecode.Class, maxSteps int64, in Val) {
	t.Helper()
	vmI := New(cls)
	vmI.MaxSteps = maxSteps
	vmJ := jitVM(t, cls)
	vmJ.MaxSteps = maxSteps
	outI, errI := vmI.Call(in)
	outJ, errJ := vmJ.Call(in)
	if (errI == nil) != (errJ == nil) {
		t.Fatalf("error divergence: interp=%v jit=%v", errI, errJ)
	}
	if errI != nil && errI.Error() != errJ.Error() {
		t.Fatalf("error text divergence:\n  interp: %v\n  jit:    %v", errI, errJ)
	}
	if errI == nil && !reflect.DeepEqual(outI, outJ) {
		t.Fatalf("output divergence: interp=%v jit=%v", outI, outJ)
	}
	if vmI.Counts != vmJ.Counts {
		t.Fatalf("counts divergence:\n  interp: %+v\n  jit:    %+v", vmI.Counts, vmJ.Counts)
	}
}

func intVal(v int64) Val { return Scalar(cir.IntVal(cir.Int, v)) }

// fusionKernels exercise the statement-tree lowering from source-level
// kernels whose bytecode builds multi-instruction trees.
var fusionKernels = []struct {
	name     string
	src      string
	in       func() Val
	minFused int
}{
	{
		// `a + b` with both operands local: load a; load b; bin.
		name: "load-load-bin",
		src: `
class F1 extends Accelerator[(Int, Int), Int] {
  val id: String = "f1"
  def call(in: (Int, Int)): Int = {
    val a: Int = in._1
    val b: Int = in._2
    a * b + (a - b)
  }
}`,
		in:       func() Val { return Tuple(intVal(6), intVal(7)) },
		minFused: 1,
	},
	{
		// `arr(i)` with array and index local: load arr; load i; aload.
		name: "load-load-aload",
		src: `
class F2 extends Accelerator[Int, Int] {
  val id: String = "f2"
  def call(in: Int): Int = {
    val arr: Array[Int] = new Array[Int](4)
    var i: Int = 0
    while (i < 4) {
      arr(i) = i * in
      i = i + 1
    }
    var acc: Int = 0
    i = 0
    while (i < 4) {
      acc = acc + arr(i)
      i = i + 1
    }
    acc
  }
}`,
		in:       func() Val { return intVal(3) },
		minFused: 1,
	},
	{
		// `in._1` with the tuple local: load in; getfield.
		name: "load-getfield",
		src: `
class F3 extends Accelerator[(Int, Int), Int] {
  val id: String = "f3"
  def call(in: (Int, Int)): Int = {
    in._1 - in._2
  }
}`,
		in:       func() Val { return Tuple(intVal(10), intVal(4)) },
		minFused: 1,
	},
}

// TestFusionRules compiles one kernel per tree shape, checks that the
// lowering built trees (JITStats.Fused), and proves the lowered
// execution is byte-identical to the interpreter.
func TestFusionRules(t *testing.T) {
	for _, tc := range fusionKernels {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			vm := compile(t, tc.src)
			p, err := Compile(vm.Class)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			st := p.Stats()
			if st.Fused < tc.minFused {
				t.Errorf("fused = %d, want >= %d (ops=%d)", st.Fused, tc.minFused, st.Ops)
			}
			diffCall(t, vm.Class, 0, tc.in())
		})
	}
}

// straightLineClass hand-assembles `call(in: Int): Int = in + in`, whose
// body is one block and one statement tree (a return of load+load+bin) —
// four bytecode steps total.
func straightLineClass(t *testing.T, extra ...bytecode.Instr) *bytecode.Class {
	t.Helper()
	code := []bytecode.Instr{
		{Op: bytecode.OpLoad, A: 0},
		{Op: bytecode.OpLoad, A: 0},
		{Op: bytecode.OpBin, Bin: cir.Add, Kind: cir.Int},
		{Op: bytecode.OpReturn},
	}
	code = append(code, extra...)
	m := &bytecode.Method{
		Name:       "call",
		Params:     []bytecode.TypeDesc{bytecode.Prim(cir.Int)},
		Ret:        bytecode.Prim(cir.Int),
		LocalTypes: []bytecode.TypeDesc{bytecode.Prim(cir.Int)},
		LocalNames: []string{"in"},
		Code:       code,
	}
	return &bytecode.Class{Name: "SL", ID: "sl", Call: m, InSizes: []int{1}}
}

// TestMaxStepsBoundary walks the budget through every prefix of a
// lowered block and asserts interpreter and JIT exhaust the budget at
// the same instruction with the same partial Counts — the hand-over
// contract that keeps MaxSteps semantics identical.
func TestMaxStepsBoundary(t *testing.T) {
	cls := straightLineClass(t)
	for budget := int64(1); budget <= 5; budget++ {
		diffCall(t, cls, budget, intVal(21))
	}
	// The method needs exactly 4 steps: budget 3 must fail, 4 succeed.
	vm := jitVM(t, cls)
	vm.MaxSteps = 3
	if _, err := vm.Call(intVal(21)); err == nil {
		t.Error("budget 3 should exhaust")
	}
	vm.MaxSteps = 4
	out, err := vm.Call(intVal(21))
	if err != nil {
		t.Fatalf("budget 4 should suffice: %v", err)
	}
	if out.S.I != 42 {
		t.Errorf("out = %d, want 42", out.S.I)
	}
}

// TestDefaultMaxSteps checks the zero-value budget resolves to
// DefaultMaxSteps on both engines (satellite: the default is applied in
// exactly one place, not per-invocation ad hoc).
func TestDefaultMaxSteps(t *testing.T) {
	vm := New(straightLineClass(t))
	if got := vm.budget(); got != DefaultMaxSteps {
		t.Errorf("budget() = %d, want DefaultMaxSteps", got)
	}
	vm.MaxSteps = 7
	if got := vm.budget(); got != 7 {
		t.Errorf("budget() = %d, want 7", got)
	}
	diffCall(t, straightLineClass(t), 0, intVal(1))
}

// TestFusionBarrierAtLeader hand-builds code where the Bin of a
// load-load-bin triple is a branch target. Structurally verified code
// can never look like this (the operand stack is non-empty mid
// expression, so interiors are never leaders) — the JIT must reject it
// rather than build a tree across the boundary or miscompile.
func TestFusionBarrierAtLeader(t *testing.T) {
	cmPlain, err := compileMethod(straightLineClass(t), straightLineClass(t).Call)
	if err != nil {
		t.Fatal(err)
	}
	if cmPlain.fused != 1 {
		t.Errorf("plain: fused = %d, want 1", cmPlain.fused)
	}
	// A trailing (unreachable) goto that targets the Bin makes
	// instruction 2 a leader.
	blocked := straightLineClass(t, bytecode.Instr{Op: bytecode.OpGoto, Target: 2})
	if _, err := compileMethod(blocked, blocked.Call); err == nil {
		t.Error("leader mid-expression should fail depth analysis")
	}
	if _, err := Compile(blocked); err == nil {
		t.Error("Compile should reject a class the structural verifier rejects")
	}
}

// TestFrameReuse proves repeated invocations on one JIT VM neither leak
// state across tasks nor allocate per task.
func TestFrameReuse(t *testing.T) {
	cls := straightLineClass(t)
	vm := jitVM(t, cls)
	for i := int64(0); i < 100; i++ {
		out, err := vm.Call(intVal(i))
		if err != nil {
			t.Fatal(err)
		}
		if out.S.I != 2*i {
			t.Fatalf("call(%d) = %d, want %d", i, out.S.I, 2*i)
		}
	}
	in := intVal(5)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := vm.Call(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Call allocates %.1f per task on the frame arena, want 0", allocs)
	}
}

// TestErrorPathEquivalence drives both engines into each runtime error
// and asserts identical error text and identical partial Counts.
func TestErrorPathEquivalence(t *testing.T) {
	t.Run("array-out-of-bounds", func(t *testing.T) {
		vm := compile(t, `
class E1 extends Accelerator[Int, Int] {
  val id: String = "e1"
  def call(in: Int): Int = {
    val arr: Array[Int] = new Array[Int](3)
    arr(in)
  }
}`)
		diffCall(t, vm.Class, 0, intVal(10))
		diffCall(t, vm.Class, 0, intVal(-1))
		diffCall(t, vm.Class, 0, intVal(2))
	})
	t.Run("div-by-zero", func(t *testing.T) {
		vm := compile(t, `
class E2 extends Accelerator[(Int, Int), Int] {
  val id: String = "e2"
  def call(in: (Int, Int)): Int = {
    val a: Int = in._1
    val b: Int = in._2
    a / b
  }
}`)
		diffCall(t, vm.Class, 0, Tuple(intVal(7), intVal(0)))
		diffCall(t, vm.Class, 0, Tuple(intVal(7), intVal(2)))
	})
	t.Run("arity", func(t *testing.T) {
		cls := straightLineClass(t)
		vmJ := jitVM(t, cls)
		_, errJ := vmJ.Invoke(cls.Call, nil)
		_, errI := New(cls).Invoke(cls.Call, nil)
		if errJ == nil || errI == nil || errJ.Error() != errI.Error() {
			t.Errorf("arity errors differ: interp=%v jit=%v", errI, errJ)
		}
	})
}

// TestTraceForcesInterpreter: a VM with a per-instruction Trace hook
// must interpret (the compiled path has no observation point) and the
// hook must fire.
func TestTraceForcesInterpreter(t *testing.T) {
	cls := straightLineClass(t)
	vm := jitVM(t, cls)
	fired := 0
	vm.Trace = func(m *bytecode.Method, pc int, stack, locals []Val) { fired++ }
	if vm.TryJIT() {
		t.Error("TryJIT with Trace hook")
	}
	out, err := vm.Call(intVal(4))
	if err != nil {
		t.Fatal(err)
	}
	if out.S.I != 8 || fired != 4 {
		t.Errorf("out=%d fired=%d, want 8 and 4", out.S.I, fired)
	}
}

// TestCallBatch checks the batched loop matches call-by-call execution.
func TestCallBatch(t *testing.T) {
	cls := straightLineClass(t)
	vm := jitVM(t, cls)
	in := []Val{intVal(1), intVal(2), intVal(3)}
	out, err := vm.CallBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.S.I != 2*int64(i+1) {
			t.Errorf("out[%d] = %d", i, v.S.I)
		}
	}
	if vm.Counts.Invokes != 3 {
		t.Errorf("Invokes = %d, want 3", vm.Counts.Invokes)
	}
}

// TestCompileCachedSharing: two VMs of one class share one Program.
func TestCompileCachedSharing(t *testing.T) {
	cls := straightLineClass(t)
	a, err := CompileCached(cls)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileCached(cls)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("CompileCached returned distinct programs for one class")
	}
}

// TestHandOver drives the two ways the lowering gives an invocation to
// the interpreter: an argument of another kind than its parameter
// declares (from the start), and a block the analysis leaves unlowered
// because it stores a Long into an Int local (at its leader, with the
// locals rebuilt from the typed slots). Both must stay byte-identical to
// the interpreter under every budget.
func TestHandOver(t *testing.T) {
	for budget := int64(0); budget <= 5; budget++ {
		diffCall(t, straightLineClass(t), budget, Scalar(cir.IntVal(cir.Long, 5)))
	}
	code := []bytecode.Instr{
		{Op: bytecode.OpLoad, A: 0},
		{Op: bytecode.OpStore, A: 1},
		{Op: bytecode.OpGoto, Target: 3},
		{Op: bytecode.OpConst, Kind: cir.Long, Val: cir.IntVal(cir.Long, 1<<40)},
		{Op: bytecode.OpStore, A: 2},
		{Op: bytecode.OpLoad, A: 2},
		{Op: bytecode.OpLoad, A: 1},
		{Op: bytecode.OpBin, Bin: cir.Add, Kind: cir.Long},
		{Op: bytecode.OpReturn},
	}
	i32 := bytecode.Prim(cir.Int)
	cls := &bytecode.Class{Name: "HO", ID: "ho", InSizes: []int{1}, Call: &bytecode.Method{
		Name:       "call",
		Params:     []bytecode.TypeDesc{i32},
		Ret:        bytecode.Prim(cir.Long),
		LocalTypes: []bytecode.TypeDesc{i32, i32, i32},
		LocalNames: []string{"in", "a", "b"},
		Code:       code,
	}}
	p, err := Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	if n := Unlowered(p); n != 1 {
		t.Fatalf("unlowered blocks = %d, want the one storing a Long into an Int local", n)
	}
	for budget := int64(0); budget <= 10; budget++ {
		diffCall(t, cls, budget, intVal(21))
	}
	// An unlowered entry block hands over at once, even under a budget
	// that no block's steps exceed.
	entry := &bytecode.Class{Name: "HE", ID: "he", InSizes: []int{1}, Call: &bytecode.Method{
		Name:       "call",
		Params:     []bytecode.TypeDesc{i32},
		Ret:        bytecode.Prim(cir.Int),
		LocalTypes: []bytecode.TypeDesc{i32, i32},
		LocalNames: []string{"in", "a"},
		Code: []bytecode.Instr{
			{Op: bytecode.OpConst, Kind: cir.Long, Val: cir.IntVal(cir.Long, 1<<40)},
			{Op: bytecode.OpStore, A: 1},
			{Op: bytecode.OpLoad, A: 1},
			{Op: bytecode.OpReturn},
		},
	}}
	if p, err = Compile(entry); err != nil {
		t.Fatal(err)
	}
	if n := Unlowered(p); n != 1 {
		t.Fatalf("unlowered blocks = %d, want the entry block", n)
	}
	for _, budget := range []int64{0, 3, math.MaxInt64} {
		diffCall(t, entry, budget, intVal(21))
	}
}
