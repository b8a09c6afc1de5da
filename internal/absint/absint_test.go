package absint

import (
	"math"
	"strings"
	"testing"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/kdsl"
)

func TestIntervalLattice(t *testing.T) {
	a := Interval{1, 5}
	b := Interval{3, 9}
	if j := a.Join(b); j != (Interval{1, 9}) {
		t.Errorf("join = %v", j)
	}
	if m := a.Meet(b); m != (Interval{3, 5}) {
		t.Errorf("meet = %v", m)
	}
	if !Bottom().IsBottom() || Bottom().Join(a) != a {
		t.Error("bottom is not the join identity")
	}
	if !Top().Contains(1e300) || !Top().Contains(math.NaN()) {
		t.Error("top must contain everything including NaN")
	}
	if (Interval{0, 1}).Contains(math.NaN()) {
		t.Error("non-top interval contains NaN")
	}
	w := (Interval{0, 10}).Widen(Interval{0, 5}, kindRange(cir.Int))
	if w.Hi != kindRange(cir.Int).Hi || w.Lo != 0 {
		t.Errorf("widen = %v", w)
	}
	if c, ok := (Interval{7, 7}).ConstInt(); !ok || c != 7 {
		t.Errorf("ConstInt = %d, %v", c, ok)
	}
	if _, ok := (Interval{7, 8}).ConstInt(); ok {
		t.Error("non-singleton reported constant")
	}
	if bits, ok := (Interval{-100, 100}).Bits(); !ok || bits != 8 {
		t.Errorf("Bits([-100,100]) = %d, %v", bits, ok)
	}
	if bits, ok := (Interval{0, 70000}).Bits(); !ok || bits != 32 {
		t.Errorf("Bits([0,70000]) = %d, %v", bits, ok)
	}
}

func TestIntervalTransferMatchesEval(t *testing.T) {
	// Every concrete evaluation must land inside the abstract transfer's
	// result, across operator/kind/operand combinations.
	ops := []cir.BinOp{cir.Add, cir.Sub, cir.Mul, cir.Div, cir.Rem, cir.And, cir.Or, cir.Xor, cir.Shl, cir.Shr, cir.Lt, cir.Le, cir.Gt, cir.Ge, cir.Eq, cir.Ne}
	vals := []int64{-130, -128, -3, -1, 0, 1, 2, 7, 127, 128, 1000}
	kinds := []cir.Kind{cir.Char, cir.Short, cir.Int, cir.Long}
	for _, k := range kinds {
		for _, op := range ops {
			for _, x := range vals {
				for _, y := range vals {
					l := cir.IntVal(k, x)
					r := cir.IntVal(k, y)
					got, err := cir.EvalBinary(op, k, l, r)
					if err != nil {
						continue // div/rem by zero
					}
					iv := binInterval(op, k, Const(l), Const(r))
					if op.IsCompare() {
						iv = compareInterval(op, Const(l), Const(r))
					}
					if !iv.ContainsValue(got) {
						t.Fatalf("%s.%s(%d, %d) = %s escapes %v", op, k, x, y, got, iv)
					}
				}
			}
		}
	}
}

// TestIntKindedFloatIntrinsics: the six intrinsics that compute a
// double convert it to an integer kind as a cast does (truncate toward
// zero, then wrap to the kind's width), and the abstract transfer
// encloses the converted value.
func TestIntKindedFloatIntrinsics(t *testing.T) {
	kinds := []cir.Kind{cir.Bool, cir.Char, cir.Short, cir.Int, cir.Long}
	cases := []struct {
		name string
		args []float64
		want []int64 // per kind, in the order of kinds
	}{
		{"exp", []float64{30}, []int64{1, 20, 30228, 595949076, 10686474581524}},
		{"log", []float64{1e6}, []int64{1, 13, 13, 13, 13}},
		{"sqrt", []float64{17}, []int64{1, 4, 4, 4, 4}},
		{"fabs", []float64{-300.75}, []int64{1, 44, 300, 300, 300}},
		{"floor", []float64{-3.5}, []int64{1, -4, -4, -4, -4}},
		{"pow", []float64{3, 20}, []int64{1, -111, 7057, -808182895, 3486784401}},
	}
	for _, c := range cases {
		args := make([]cir.Value, len(c.args))
		ivs := make([]Interval, len(c.args))
		for i, x := range c.args {
			args[i] = cir.FloatVal(cir.Double, x)
			ivs[i] = Const(args[i])
		}
		for i, k := range kinds {
			got, err := cir.EvalIntrinsic(c.name, k, args)
			if err != nil {
				t.Fatalf("%s.%s: %v", c.name, k, err)
			}
			if got.K != k || got.I != c.want[i] || got.F != 0 {
				t.Errorf("%s.%s%v = {K:%s I:%d F:%g}, want {K:%s I:%d}", c.name, k, c.args, got.K, got.I, got.F, k, c.want[i])
			}
			if iv := intrinInterval(c.name, k, ivs); !iv.ContainsValue(got) {
				t.Errorf("%s.%s%v = %s escapes %v", c.name, k, c.args, got, iv)
			}
		}
	}
}

const sumSource = `
class Dot extends Accelerator[(Array[Int], Array[Int]), Int] {
  val id: String = "dot"
  val inSizes: Array[Int] = Array(8, 8)
  def call(in: (Array[Int], Array[Int])): Int = {
    val a: Array[Int] = in._1
    val b: Array[Int] = in._2
    var s: Int = 0
    for (i <- 0 until 8) {
      s = s + a(i) * b(i)
    }
    s
  }
}
`

func TestAnalyzeClassBasics(t *testing.T) {
	cls, err := kdsl.CompileSource(sumSource)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := AnalyzeClass(cls)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts.Call.Violations) != 0 {
		t.Errorf("unexpected violations: %v", facts.Call.Violations)
	}
	if !facts.Pure() {
		t.Errorf("pure kernel reported impure: %v", facts.Impurities())
	}
	// The loop counter slot must be bounded by the refined loop guard.
	var counter Interval
	found := false
	for i, name := range cls.Call.LocalNames {
		if name == "i" {
			counter = facts.Call.LocalRange(i)
			found = true
		}
	}
	if !found {
		t.Fatalf("no local named i in %v", cls.Call.LocalNames)
	}
	if counter.Lo < 0 || counter.Hi > 8 {
		t.Errorf("loop counter range %v, want within [0, 8]", counter)
	}
	// Input arrays: element range is the full Int kind, length pinned to
	// the per-task InSizes.
	a := facts.Call.Array("field#0")
	if a == nil {
		t.Fatal("no facts for input field#0")
	}
	if n, ok := a.Len.ConstInt(); !ok || n != 8 {
		t.Errorf("input length %v, want constant 8", a.Len)
	}
	if a.Elems != kindRange(cir.Int) {
		t.Errorf("input element range %v", a.Elems)
	}
}

const fillSource = `
class Fill extends Accelerator[Array[Int], Array[Char]] {
  val id: String = "fill"
  val inSizes: Array[Int] = Array(4)
  def call(in: Array[Int]): Array[Char] = {
    var out: Array[Char] = new Array[Char](16)
    for (i <- 0 until 16) {
      out(i) = (i + 1).toChar
    }
    out
  }
}
`

func TestArrayExtentAndElementRange(t *testing.T) {
	cls, err := kdsl.CompileSource(fillSource)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := AnalyzeClass(cls)
	if err != nil {
		t.Fatal(err)
	}
	var alloc *ArrayFacts
	for i := range facts.Call.Arrays {
		if strings.HasPrefix(facts.Call.Arrays[i].Origin, "new@") {
			alloc = &facts.Call.Arrays[i]
		}
	}
	if alloc == nil {
		t.Fatal("no allocation-site array facts")
	}
	if n, ok := alloc.Len.ConstInt(); !ok || n != 16 {
		t.Errorf("extent %v, want constant 16", alloc.Len)
	}
	// Elements: zero fill plus stores of i+1 for i in [0,15].
	if alloc.Elems.Lo < 0 || alloc.Elems.Hi > 16 {
		t.Errorf("element range %v, want within [0, 16]", alloc.Elems)
	}
	if !alloc.Pos.Valid() {
		t.Error("allocation site lost its source position")
	}
	// The fresh array is returned: no escape, no heap writes.
	if !facts.Pure() {
		t.Errorf("fill kernel reported impure: %v", facts.Impurities())
	}
}

// asm builds a method around code with positions attached.
func asm(ret bytecode.TypeDesc, params []bytecode.TypeDesc, code []bytecode.Instr, extras ...bytecode.TypeDesc) *bytecode.Method {
	locals := append(append([]bytecode.TypeDesc{}, params...), extras...)
	pos := make([]bytecode.Pos, len(code))
	for i := range pos {
		pos[i] = bytecode.Pos{Line: 10 + i, Col: 3}
	}
	return &bytecode.Method{
		Name: "m", Params: params, Ret: ret,
		LocalTypes: locals, LocalNames: make([]string, len(locals)),
		Code: code, Pos: pos,
	}
}

func ci(v int64) bytecode.Instr {
	return bytecode.Instr{Op: bytecode.OpConst, Kind: cir.Int, Val: cir.IntVal(cir.Int, v)}
}

func TestViolationExternalCall(t *testing.T) {
	// `sin` is outside the intrinsic whitelist; bytecode.Verify rejects
	// it, so drive the analyzer directly the way a front end that defers
	// legality checking would.
	m := asm(bytecode.Prim(cir.Double), nil, []bytecode.Instr{
		ci(1),
		{Op: bytecode.OpIntrin, Sym: "sin", A: 1, Kind: cir.Double},
		{Op: bytecode.OpReturn},
	})
	facts, err := new(workspace).analyzeMethod(m, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts.Violations) != 1 {
		t.Fatalf("violations = %v, want 1", facts.Violations)
	}
	v := facts.Violations[0]
	if v.Kind != ViolExternalCall {
		t.Errorf("kind = %v", v.Kind)
	}
	if v.Pos != (bytecode.Pos{Line: 11, Col: 3}) {
		t.Errorf("pos = %v, want 11:3", v.Pos)
	}
	if !strings.Contains(v.String(), "11:3") || !strings.Contains(v.String(), "external-call") {
		t.Errorf("String() = %q", v.String())
	}
}

func TestViolationDynamicAlloc(t *testing.T) {
	m := asm(bytecode.Prim(cir.Int), []bytecode.TypeDesc{bytecode.Prim(cir.Int)}, []bytecode.Instr{
		{Op: bytecode.OpLoad, A: 0},
		{Op: bytecode.OpNewArray, Kind: cir.Int},
		{Op: bytecode.OpStore, A: 1},
		ci(0),
		{Op: bytecode.OpReturn},
	}, bytecode.ArrayOf(cir.Int))
	facts, err := new(workspace).analyzeMethod(m, nil, []Abstract{{Iv: kindRange(cir.Int)}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts.Violations) != 1 || facts.Violations[0].Kind != ViolDynamicAlloc {
		t.Fatalf("violations = %v, want one dynamic-alloc", facts.Violations)
	}
	if !facts.Violations[0].Pos.Valid() {
		t.Error("dynamic-alloc violation lost its source position")
	}
}

func TestViolationUnsupportedType(t *testing.T) {
	nested := bytecode.TupleOf(bytecode.TupleOf(bytecode.Prim(cir.Int), bytecode.Prim(cir.Int)), bytecode.Prim(cir.Int))
	m := asm(bytecode.Prim(cir.Int), []bytecode.TypeDesc{nested}, []bytecode.Instr{
		ci(0),
		{Op: bytecode.OpReturn},
	})
	facts, err := AnalyzeMethod(m)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range facts.Violations {
		if v.Kind == ViolUnsupportedType && strings.Contains(v.Detail, "nested tuple") {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %v, want unsupported-type for nested tuple", facts.Violations)
	}
}

func TestPurityHeapWriteAndEscape(t *testing.T) {
	arr := bytecode.ArrayOf(cir.Int)
	m := asm(arr, []bytecode.TypeDesc{arr}, []bytecode.Instr{
		{Op: bytecode.OpLoad, A: 0},
		ci(0),
		ci(42),
		{Op: bytecode.OpAStore, Kind: cir.Int},
		{Op: bytecode.OpLoad, A: 0},
		{Op: bytecode.OpReturn},
	})
	facts, err := AnalyzeMethod(m)
	if err != nil {
		t.Fatal(err)
	}
	if facts.Purity.Pure() {
		t.Fatal("argument-mutating method reported pure")
	}
	if len(facts.Purity.HeapWrites) != 1 {
		t.Errorf("heap writes = %v", facts.Purity.HeapWrites)
	}
	if len(facts.Purity.ArgEscapes) != 1 {
		t.Errorf("escapes = %v", facts.Purity.ArgEscapes)
	}
	// The same shape analyzed as a reduce combiner (operand ownership)
	// is pure.
	rf, err := new(workspace).analyzeMethod(m, nil, []Abstract{{IsArray: true, Elems: kindRange(cir.Int), Len: Interval{0, 100}}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rf.Purity.Pure() {
		t.Errorf("combiner-mode analysis reported impure: %v %v", rf.Purity.HeapWrites, rf.Purity.ArgEscapes)
	}
}

func TestStoredAndLoadedFacts(t *testing.T) {
	cls, err := kdsl.CompileSource(fillSource)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := AnalyzeClass(cls)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts.Call.Stored) == 0 {
		t.Error("no per-pc store facts recorded")
	}
	for pc, iv := range facts.Call.Stored {
		if iv.IsBottom() {
			t.Errorf("bottom store fact at pc %d", pc)
		}
	}
}
