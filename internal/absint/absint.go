// Package absint is an interprocedural abstract interpreter over the
// JVM-style bytecode of internal/bytecode — the pre-decompilation
// analysis layer of the S2FA front end. It runs a worklist fixpoint over
// the verified control-flow graph (joining abstract states at leaders,
// with widening at loop heads) and computes three product domains:
//
//   - interval/constant propagation for locals, operand-stack slots, and
//     array elements, with branch refinement at compare-and-branch
//     boundaries;
//   - a purity/side-effect summary per method (heap writes into
//     caller-visible arrays, argument escape through the return value);
//   - §3.3 legality violations (external library calls, non-constant
//     `new` sizes, unsupported composite types) resolved through the
//     bytecode source map back to kdsl line:column positions.
//
// Downstream, b2c consumes the proven value ranges and array extents to
// seed cir bit-width inference (and marks the proven buffers
// cir.Param.ValKnown, which gates the DSE's width rule and its count of
// dominated Table 1 bit-width values), lint drops bounds warnings the
// intervals disprove, and blaze gates offload on the purity summary.
package absint

import (
	"fmt"
	"sort"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// Abstract is the exported abstraction of one value: a scalar interval,
// an array summary, or a tuple of abstractions.
type Abstract struct {
	Iv      Interval
	IsArray bool
	Elems   Interval // element range when IsArray
	Len     Interval // length range when IsArray
	Fields  []Abstract
}

// IsTuple reports whether the abstraction describes a tuple.
func (a Abstract) IsTuple() bool { return len(a.Fields) > 0 }

// ArrayFacts summarizes one abstract array object (an allocation site,
// an input root, or a static field).
type ArrayFacts struct {
	// Origin identifies the object: "param#i", "field#i" (tuple field of
	// the first parameter; fields of later parameters are qualified as
	// "param#i.field#j"), "static:<name>", or "new@<pc>".
	Origin string
	Kind   cir.Kind
	Elems  Interval
	Len    Interval
	// Pos is the allocation site's source position (new sites only).
	Pos bytecode.Pos
	// Input marks caller-visible arrays (method arguments); Static marks
	// class constant fields. Writes into either are heap effects.
	Input  bool
	Static bool
}

// Effect is one side effect observed during analysis.
type Effect struct {
	PC     int
	Pos    bytecode.Pos
	Detail string
}

func (e Effect) String() string {
	if e.Pos.Valid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Detail)
	}
	return fmt.Sprintf("@%d: %s", e.PC, e.Detail)
}

// Purity is the side-effect summary of a method.
type Purity struct {
	// HeapWrites are stores into caller-visible memory (argument arrays
	// or class statics).
	HeapWrites []Effect
	// ArgEscapes are argument arrays that flow into the return value, so
	// the output aliases caller memory.
	ArgEscapes []Effect
}

// Pure reports whether the method has no observable side effects beyond
// its return value.
func (p Purity) Pure() bool { return len(p.HeapWrites) == 0 && len(p.ArgEscapes) == 0 }

// ViolationKind classifies a §3.3 legality violation.
type ViolationKind int

const (
	// ViolExternalCall is a call to a function outside the supported
	// math-intrinsic whitelist (paper §3.3: library calls).
	ViolExternalCall ViolationKind = iota
	// ViolDynamicAlloc is a `new Array` whose size is not provably a
	// compile-time constant (paper §3.3: dynamic memory allocation).
	ViolDynamicAlloc
	// ViolUnsupportedType is a composite type outside the template set
	// (nested tuples, unsupported arity).
	ViolUnsupportedType
)

func (k ViolationKind) String() string {
	switch k {
	case ViolExternalCall:
		return "external-call"
	case ViolDynamicAlloc:
		return "dynamic-alloc"
	case ViolUnsupportedType:
		return "unsupported-type"
	}
	return fmt.Sprintf("violation(%d)", int(k))
}

// Violation is one sourced §3.3 legality violation.
type Violation struct {
	Kind   ViolationKind
	Method string
	PC     int // -1 for method-level violations
	Pos    bytecode.Pos
	Detail string
}

func (v Violation) String() string {
	where := v.Pos.String()
	if !v.Pos.Valid() && v.PC >= 0 {
		where = fmt.Sprintf("%s@%d", v.Method, v.PC)
	}
	return fmt.Sprintf("%s: §3.3 %s: %s", where, v.Kind, v.Detail)
}

// Sourced renders the violation with its kdsl file label prepended to
// the line:column position (file:line:col, the compiler-diagnostic
// convention).
func (v Violation) Sourced(file string) string {
	return fmt.Sprintf("%s: §3.3 %s: %s", srcPos(file, v.Pos, v.Method, v.PC), v.Kind, v.Detail)
}

// MethodFacts is everything the analyzer proved about one method.
type MethodFacts struct {
	Method *bytecode.Method
	// Local is the per-slot join of every value the slot ever holds
	// (including the zero initialization and the arguments).
	Local []Interval
	// Stored maps an OpStore/OpAStore pc to the range of the value popped
	// there (pre element conversion for astore).
	Stored map[int]Interval
	// Loaded maps an OpALoad pc to the range of the loaded element.
	Loaded map[int]Interval
	// Arrays lists all abstract array objects the method touches.
	Arrays []ArrayFacts
	// Ret abstracts the return value.
	Ret        Abstract
	Purity     Purity
	Violations []Violation
	// Fixpoint records how much work the worklist solver did on this
	// method — the telemetry behind the absint spans of a pipeline trace.
	Fixpoint FixpointStats
}

// FixpointStats counts the abstract interpreter's fixpoint work for one
// method: worklist block visits, state joins at leaders, and widening
// applications (loop-head locals and array-element updates).
type FixpointStats struct {
	Iterations     int // blocks popped off the worklist
	Joins          int // state joins at block leaders
	Widenings      int // loop-head widening applications on locals
	ArrayWidenings int // array-element widenings (all passes)
}

// LocalRange returns the proven range of a local slot (Top when the slot
// index is unknown).
func (f *MethodFacts) LocalRange(slot int) Interval {
	if f == nil || slot < 0 || slot >= len(f.Local) {
		return Top()
	}
	return f.Local[slot]
}

// Array returns the facts for the object with the given origin, or nil.
func (f *MethodFacts) Array(origin string) *ArrayFacts {
	for i := range f.Arrays {
		if f.Arrays[i].Origin == origin {
			return &f.Arrays[i]
		}
	}
	return nil
}

// ClassFacts bundles the per-method facts of a kernel class.
type ClassFacts struct {
	Class  *bytecode.Class
	Call   *MethodFacts
	Reduce *MethodFacts // nil for pure map kernels
}

// Violations returns all §3.3 violations across the class's methods.
func (cf *ClassFacts) Violations() []Violation {
	var out []Violation
	out = append(out, cf.Call.Violations...)
	if cf.Reduce != nil {
		out = append(out, cf.Reduce.Violations...)
	}
	return out
}

// Pure reports whether every method of the class is side-effect free.
func (cf *ClassFacts) Pure() bool {
	if !cf.Call.Purity.Pure() {
		return false
	}
	return cf.Reduce == nil || cf.Reduce.Purity.Pure()
}

// OutputAbstract is the joined abstraction of every value the kernel can
// deliver through its output buffers: the call method's return joined,
// when a combiner is present, with the reduce method's return (reduce
// kernels accumulate combiner results in the output accumulators).
func (cf *ClassFacts) OutputAbstract() Abstract {
	out := cf.Call.Ret
	if cf.Reduce != nil {
		out = joinAbstract(out, cf.Reduce.Ret)
	}
	return out
}

// KindRange is the interval of representable values of a primitive kind:
// the exact wraparound range for integer kinds, Top for floats.
func KindRange(k cir.Kind) Interval { return kindRange(k) }

// Impurities returns the combined side-effect list across methods.
func (cf *ClassFacts) Impurities() []Effect {
	var out []Effect
	collect := func(f *MethodFacts) {
		out = append(out, f.Purity.HeapWrites...)
		out = append(out, f.Purity.ArgEscapes...)
	}
	collect(cf.Call)
	if cf.Reduce != nil {
		collect(cf.Reduce)
	}
	return out
}

// reduceSeedRounds bounds the outer fixpoint seeding reduce's parameters
// from its own return abstraction before forcing top.
const reduceSeedRounds = 6

// AnalyzeClass analyzes a verified kernel class: the call method under
// unconstrained inputs of the declared kinds (array lengths pinned to the
// class's per-task InSizes), then the reduce method with its parameters
// seeded interprocedurally from the call/reduce return abstractions,
// iterating to an outer fixpoint.
func AnalyzeClass(c *bytecode.Class) (*ClassFacts, error) {
	if err := bytecode.VerifyClass(c); err != nil {
		return nil, err
	}
	return analyzeClass(c)
}

// DiagnoseClass analyzes a class with only the structural half of the
// verifier as a precondition: well-formed-but-illegal kernels (external
// library calls, dynamic allocation) analyze fully, and every §3.3
// violation comes back as a sourced fact instead of the verifier's
// first-error stop. This is the entry point behind `s2fa -lint` and
// `s2fa -explain`.
func DiagnoseClass(c *bytecode.Class) (*ClassFacts, error) {
	if err := bytecode.VerifyClassStructural(c); err != nil {
		return nil, err
	}
	return analyzeClass(c)
}

func analyzeClass(c *bytecode.Class) (*ClassFacts, error) {
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	return ws.analyzeClass(c)
}

func (ws *workspace) analyzeClass(c *bytecode.Class) (*ClassFacts, error) {
	cf := &ClassFacts{Class: c}

	callIn := make([]Abstract, len(c.Call.Params))
	for i, p := range c.Call.Params {
		callIn[i] = inputAbstract(p, c.InSizes)
	}
	var err error
	cf.Call, err = ws.analyzeMethod(c.Call, c, callIn, true)
	if err != nil {
		return nil, err
	}

	if c.Reduce != nil {
		seed := cf.Call.Ret
		for round := 0; ; round++ {
			if round >= reduceSeedRounds {
				seed = topLike(seed)
			}
			args := make([]Abstract, len(c.Reduce.Params))
			for i := range args {
				args[i] = seed
			}
			// Reduce combines framework-owned intermediate values, so its
			// argument writes are not caller-visible heap effects.
			cf.Reduce, err = ws.analyzeMethod(c.Reduce, c, args, false)
			if err != nil {
				return nil, err
			}
			next := joinAbstract(seed, cf.Reduce.Ret)
			if abstractEqual(next, seed) {
				break
			}
			seed = next
		}
	}
	return cf, nil
}

// AnalyzeMethod analyzes a single verified method with unconstrained
// inputs of the declared parameter types.
func AnalyzeMethod(m *bytecode.Method) (*MethodFacts, error) {
	if err := bytecode.Verify(m); err != nil {
		return nil, err
	}
	in := make([]Abstract, len(m.Params))
	for i, p := range m.Params {
		in[i] = inputAbstract(p, nil)
	}
	ws := workspaces.Get()
	defer workspaces.Put(ws)
	return ws.analyzeMethod(m, nil, in, true)
}

// inputAbstract builds the unconstrained abstraction of a parameter:
// scalars range over their kind, arrays hold any value of the element
// kind with the per-task length when sizes are known.
func inputAbstract(t bytecode.TypeDesc, sizes []int) Abstract {
	size := func(i int) Interval {
		if i < len(sizes) {
			return pointIv(float64(sizes[i]))
		}
		return Interval{0, kindRange(cir.Int).Hi}
	}
	if t.IsTuple() {
		a := Abstract{Fields: make([]Abstract, len(t.Tuple))}
		for i, f := range t.Tuple {
			if f.Array {
				a.Fields[i] = Abstract{IsArray: true, Elems: kindRange(f.Kind), Len: size(i)}
			} else {
				a.Fields[i] = Abstract{Iv: kindRange(f.Kind)}
			}
		}
		return a
	}
	if t.Array {
		return Abstract{IsArray: true, Elems: kindRange(t.Kind), Len: size(0)}
	}
	return Abstract{Iv: kindRange(t.Kind)}
}

// topLike widens an abstraction to top while keeping its shape.
func topLike(a Abstract) Abstract {
	out := Abstract{Iv: Top(), IsArray: a.IsArray}
	if a.IsArray {
		out.Elems = Top()
		out.Len = a.Len.Join(Top())
	}
	for _, f := range a.Fields {
		out.Fields = append(out.Fields, topLike(f))
	}
	return out
}

func joinAbstract(a, b Abstract) Abstract {
	out := Abstract{
		Iv:      a.Iv.Join(b.Iv),
		IsArray: a.IsArray || b.IsArray,
		Elems:   a.Elems.Join(b.Elems),
		Len:     a.Len.Join(b.Len),
	}
	n := len(a.Fields)
	if len(b.Fields) > n {
		n = len(b.Fields)
	}
	for i := 0; i < n; i++ {
		var fa, fb Abstract
		if i < len(a.Fields) {
			fa = a.Fields[i]
		}
		if i < len(b.Fields) {
			fb = b.Fields[i]
		}
		out.Fields = append(out.Fields, joinAbstract(fa, fb))
	}
	return out
}

func abstractEqual(a, b Abstract) bool {
	if a.Iv != b.Iv || a.IsArray != b.IsArray || a.Elems != b.Elems ||
		a.Len != b.Len || len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		if !abstractEqual(a.Fields[i], b.Fields[i]) {
			return false
		}
	}
	return true
}

// typeViolations scans a method signature for composite types outside
// the S2FA template set (paper §3.3): tuples may not nest, and arities
// beyond 4 have no template.
func typeViolations(m *bytecode.Method) []Violation {
	var out []Violation
	pos := m.PosAt(0)
	check := func(what string, t bytecode.TypeDesc) {
		if !t.IsTuple() {
			return
		}
		if len(t.Tuple) > 4 {
			out = append(out, Violation{
				Kind: ViolUnsupportedType, Method: m.Name, PC: -1, Pos: pos,
				Detail: fmt.Sprintf("%s has tuple arity %d (templates cover Tuple2..Tuple4)", what, len(t.Tuple)),
			})
		}
		for i, f := range t.Tuple {
			if f.IsTuple() {
				out = append(out, Violation{
					Kind: ViolUnsupportedType, Method: m.Name, PC: -1, Pos: pos,
					Detail: fmt.Sprintf("%s field _%d is a nested tuple (unsupported composite type)", what, i+1),
				})
			}
		}
	}
	for i, p := range m.Params {
		check(fmt.Sprintf("parameter %d", i), p)
	}
	check("return type", m.Ret)
	return out
}

// sortedEffects orders effects by pc for deterministic output.
func sortedEffects(m map[int]Effect) []Effect {
	pcs := make([]int, 0, len(m))
	for pc := range m {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	out := make([]Effect, 0, len(pcs))
	for _, pc := range pcs {
		out = append(out, m[pc])
	}
	return out
}
