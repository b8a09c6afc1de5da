package jvmsim

// The typed JIT. Compile analyzes verified, structurally well-formed
// bytecode once per class. The verifier guarantees an empty operand
// stack at every basic-block boundary, so each block is a sequence of
// statement trees (a store, an array store, a branch, a return) over
// expression trees built from its stack code. The analysis gives every
// local and every stack value the static shape of what it holds at run
// time: a scalar kind, an array of a kind, or a tuple of those. A block
// whose values all have one is lowered, per frame, to closures over
// typed slots — func() int64, float64 or bool for scalars, composed
// from cir's operator table — and its Counts delta and step count are
// summed at compile time and charged once per block entry. The frame
// holds each scalar local as an int64 or float64 and each array or
// tuple by reference; values convert to the exported Val only at the
// invocation boundary. A method keeps its idle frames, shared by every
// VM on the Program, so it is lowered once per concurrent invocation,
// not once per VM.
//
// The interpreter stays the oracle, and it runs the rest of an
// invocation wherever the lowering cannot stand in for it exactly: at
// the leader of a block the analysis left unlowered, at the leader of a
// block whose steps do not fit the remaining MaxSteps budget, and from
// the start when an argument does not have its parameter's declared
// shape. A trap (division or remainder by zero, an array index out of
// bounds, a negative array length) leaves the block through a panic
// that invokeCompiled recovers, taking back the charges of the
// instructions after the trapping one. So outputs, Counts (on error
// paths too), error text and the step at which MaxSteps fires are
// bit-identical to the interpreter; the differential tests in
// internal/apps check that over all twelve workloads and over generated
// kernels, which is what keeps the Fig. 3/4 numbers the suite computes
// on the JIT byte-identical to the interpreter oracle's.

import (
	"fmt"
	"math"
	"sync"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// maxFresh bounds the arrays a frame tracks for recycling in one
// invocation and maxFree its free list of recycled arrays. An invocation
// that allocates more leaves the rest to the garbage collector, so a
// kernel allocating in a loop holds at most maxFresh arrays alive past
// their last use and keeps at most maxFree.
const (
	maxFresh = 32
	maxFree  = 32
)

// fact is the static shape of a local or a stack value; ok is false when
// none holds on every path, and the lowering leaves the code that reads
// it to the interpreter.
type fact struct {
	t  bytecode.TypeDesc
	ok bool
}

// typed reports whether the lowering has a representation for values of
// shape t: a scalar or array of a numeric or Bool kind, or a flat tuple
// of those.
func typed(t bytecode.TypeDesc) bool {
	if t.IsTuple() {
		if t.Array {
			return false
		}
		for _, f := range t.Tuple {
			if f.IsTuple() || !typed(f) {
				return false
			}
		}
		return true
	}
	return t.Kind >= cir.Bool && t.Kind <= cir.Double
}

// canonical reports whether a scalar holds only its kind's field, as
// every value an operator builds does; the typed slots keep only that
// field.
func canonical(v cir.Value) bool {
	if v.K.IsFloat() {
		return v.I == 0
	}
	return math.Float64bits(v.F) == 0
}

// conforms reports whether v has shape t exactly as the lowering
// represents it: scalars of the kind, canonical, and arrays whose every
// element is.
func conforms(v *Val, t bytecode.TypeDesc) bool {
	if v.S != (cir.Value{}) && (v.IsArr || v.IsTup) {
		return false
	}
	switch {
	case t.IsTuple():
		if !v.IsTup || v.IsArr || v.Arr != nil || len(v.Tup) != len(t.Tuple) {
			return false
		}
		for i := range v.Tup {
			if !conforms(&v.Tup[i], t.Tuple[i]) {
				return false
			}
		}
		return true
	case t.Array:
		if !v.IsArr || v.IsTup || v.Tup != nil {
			return false
		}
		for _, e := range v.Arr {
			if e.K != t.Kind || !canonical(e) {
				return false
			}
		}
		return true
	}
	return !v.IsArr && !v.IsTup && v.Arr == nil && v.Tup == nil && v.S.K == t.Kind && canonical(v.S)
}

// blockInfo is what the analysis knows of one basic block [start, end).
type blockInfo struct {
	start, end int
	lowered    bool
	steps      int64
	counts     Counts
}

// compiledMethod is one method's analysis: the unit each frame lowers
// to closures.
type compiledMethod struct {
	c       *bytecode.Class
	m       *bytecode.Method
	retVoid bool
	nLocals int
	slots   []fact
	blocks  []blockInfo
	// blockAt maps a leader's pc to its block.
	blockAt []int
	// fused counts the lowered statement trees spanning two or more
	// instructions.
	fused int
	// idle holds the frames no invocation is running on, under mu.
	mu   sync.Mutex
	idle []*frame
}

// take returns an idle frame of the method, lowering a new one when
// every frame is in use.
func (cm *compiledMethod) take() *frame {
	cm.mu.Lock()
	if n := len(cm.idle); n > 0 {
		fr := cm.idle[n-1]
		cm.idle[n-1], cm.idle = nil, cm.idle[:n-1]
		cm.mu.Unlock()
		return fr
	}
	cm.mu.Unlock()
	return newFrame(cm)
}

// put returns a frame whose invocation has ended.
func (cm *compiledMethod) put(fr *frame) {
	cm.mu.Lock()
	cm.idle = append(cm.idle, fr)
	cm.mu.Unlock()
}

// Program is a class analyzed for the typed lowering: the unit the JIT
// caches per class. Programs are safe for concurrent use by many VMs —
// each invocation runs on a frame of its own.
type Program struct {
	Class  *bytecode.Class
	call   *compiledMethod
	reduce *compiledMethod
}

// JITStats describes a compiled program for telemetry (the per-app
// compile counters the suite emits through internal/obs).
type JITStats struct {
	Methods int // methods compiled
	Ops     int // bytecode instructions translated
	Fused   int // statement trees lowered that span two or more instructions
}

// Stats reports the program's compile-time telemetry.
func (p *Program) Stats() JITStats {
	st := JITStats{}
	for _, cm := range []*compiledMethod{p.call, p.reduce} {
		if cm == nil {
			continue
		}
		st.Methods++
		st.Ops += len(cm.m.Code)
		st.Fused += cm.fused
	}
	return st
}

// Compile analyzes the class's methods for the typed lowering. The
// bytecode must pass structural verification (branch targets, slot
// usage, stack discipline) — the same precondition the bytecode-to-C
// compiler relies on; §3.3 legality is irrelevant to execution and not
// required.
func Compile(c *bytecode.Class) (*Program, error) {
	if err := bytecode.VerifyClassStructural(c); err != nil {
		return nil, fmt.Errorf("jvmsim: jit: %w", err)
	}
	p := &Program{Class: c}
	var err error
	if p.call, err = compileMethod(c, c.Call); err != nil {
		return nil, err
	}
	if c.Reduce != nil {
		if p.reduce, err = compileMethod(c, c.Reduce); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type cacheEntry struct {
	p   *Program
	err error
}

var progCache sync.Map // *bytecode.Class -> cacheEntry

// CompileCached returns the memoized compiled program for the class,
// compiling on first use. This is the compile-once/run-many
// amortization the experiment suite relies on: all tasks of all
// baseline batches of one app share a single compile.
func CompileCached(c *bytecode.Class) (*Program, error) {
	if e, ok := progCache.Load(c); ok {
		ce := e.(cacheEntry)
		return ce.p, ce.err
	}
	p, err := Compile(c)
	e, _ := progCache.LoadOrStore(c, cacheEntry{p: p, err: err})
	ce := e.(cacheEntry)
	return ce.p, ce.err
}

// TryJIT switches the VM to compiled execution when possible — the
// class compiles (once, memoized by CompileCached) and no
// per-instruction Trace hook is installed — and reports whether
// subsequent invocations will run compiled. It is the only switch to
// the compiled engine: a VM that never calls it, or that carries a
// Trace hook, interprets. Outputs, Counts, and errors are byte-identical
// to the interpreter; only wall-clock changes.
func (vm *VM) TryJIT() bool {
	if vm.Trace != nil {
		return false
	}
	if vm.prog == nil {
		p, err := CompileCached(vm.Class)
		if err != nil {
			return false
		}
		vm.prog = p
	}
	return true
}

// compiled resolves the compiled form of m, or nil when m is not one of
// the program's methods (foreign hand-invoked methods fall back to the
// interpreter).
func (vm *VM) compiled(m *bytecode.Method) *compiledMethod {
	switch {
	case m == vm.Class.Call:
		return vm.prog.call
	case m == vm.Class.Reduce:
		return vm.prog.reduce
	}
	return nil
}

func compileMethod(c *bytecode.Class, m *bytecode.Method) (*compiledMethod, error) {
	leaders := bytecode.Leaders(m)
	retVoid := m.Ret.Kind == cir.Void && !m.Ret.Array && !m.Ret.IsTuple()
	if err := checkDepth(m, leaders, retVoid); err != nil {
		return nil, err
	}
	cm := &compiledMethod{
		c:       c,
		m:       m,
		retVoid: retVoid,
		nLocals: len(m.LocalTypes),
		blockAt: make([]int, len(m.Code)),
	}
	for i := range m.Code {
		if leaders[i] {
			if n := len(cm.blocks); n > 0 {
				cm.blocks[n-1].end = i
			}
			cm.blocks = append(cm.blocks, blockInfo{start: i, end: len(m.Code), lowered: true})
		}
		cm.blockAt[i] = len(cm.blocks) - 1
	}
	uninit := cm.uninitReads()
	cm.slots = make([]fact, cm.nLocals)
	for s, t := range m.LocalTypes {
		if s < len(m.Params) {
			t = m.Params[s]
		}
		cm.slots[s] = fact{t: t, ok: typed(t) && !uninit[s]}
	}
	// Optimistic fixpoint: blocks and slots start lowered and typed and
	// are demoted until every lowered block simulates with typed values
	// and every store in one agrees with its slot. Stores in unlowered
	// blocks run only on the interpreter, after the frame handed over.
	for changed := true; changed; {
		changed = false
		for b := range cm.blocks {
			if blk := &cm.blocks[b]; blk.lowered {
				ok, demoted := cm.simulate(blk)
				blk.lowered = ok
				changed = changed || !ok || demoted
			}
		}
	}
	for b := range cm.blocks {
		if cm.blocks[b].lowered {
			cm.fused += cm.trees(&cm.blocks[b])
		}
	}
	return cm, nil
}

// checkDepth replays the operand stack depth with a reset at every
// leader. Structural verification guarantees an empty stack there, so an
// underflow means the bytecode was not verified.
func checkDepth(m *bytecode.Method, leaders []bool, retVoid bool) error {
	depth := 0
	for i, in := range m.Code {
		if leaders[i] {
			depth = 0
		}
		if depth += bytecode.StackEffect(in, retVoid); depth < 0 {
			return fmt.Errorf("jvmsim: jit: %s@%d: stack underflow", m.Name, i)
		}
	}
	return nil
}

// succs returns the blocks control reaches from block b.
func (cm *compiledMethod) succs(b int) []int {
	blk := cm.blocks[b]
	last := cm.m.Code[blk.end-1]
	var out []int
	switch last.Op {
	case bytecode.OpReturn:
		return nil
	case bytecode.OpGoto:
		return []int{cm.blockAt[last.Target]}
	case bytecode.OpBrFalse, bytecode.OpBrTrue:
		out = append(out, cm.blockAt[last.Target])
	}
	if blk.end < len(cm.m.Code) {
		out = append(out, cm.blockAt[blk.end])
	}
	return out
}

// uninitReads marks the locals that some load may read before the
// invocation stored to them, by a definite-assignment pass over the
// control flow graph. Such a read sees the interpreter's zero Val, whose
// kind no typed slot holds, so those locals stay with the interpreter.
func (cm *compiledMethod) uninitReads() []bool {
	n, nb := cm.nLocals, len(cm.blocks)
	in := make([][]bool, nb)
	for b := range in {
		in[b] = make([]bool, n)
		for s := range in[b] {
			in[b][s] = b > 0 || s < len(cm.m.Params)
		}
	}
	seen := make([]bool, nb)
	uninit := make([]bool, n)
	out := make([]bool, n)
	for work := []int{0}; len(work) > 0; {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		seen[b] = true
		copy(out, in[b])
		for _, ins := range cm.m.Code[cm.blocks[b].start:cm.blocks[b].end] {
			switch ins.Op {
			case bytecode.OpLoad:
				if !out[ins.A] {
					uninit[ins.A] = true
				}
			case bytecode.OpStore:
				out[ins.A] = true
			}
		}
		for _, s := range cm.succs(b) {
			changed := !seen[s]
			for v := range out {
				if in[s][v] && !out[v] {
					in[s][v], changed = false, true
				}
			}
			if changed {
				work = append(work, s)
			}
		}
	}
	return uninit
}

// staticShape returns the shape of a static's elements: uniform and
// canonical, or not ok.
func staticShape(sf *bytecode.StaticField, k cir.Kind) fact {
	if len(sf.Data) > 0 {
		k = sf.Data[0].K
	}
	for _, e := range sf.Data {
		if e.K != k || !canonical(e) {
			return fact{}
		}
	}
	t := bytecode.ArrayOf(k)
	return fact{t: t, ok: typed(t)}
}

// step is the static effect of one instruction on the operand stack of
// shapes: what it pops, the shape it pushes (push false for none), and
// whether the lowering can represent it.
func (cm *compiledMethod) step(in bytecode.Instr, ops []fact) (res fact, push, ok bool) {
	for _, o := range ops {
		if !o.ok {
			return fact{}, false, false
		}
	}
	scalar := func(o fact) bool { return !o.t.Array && !o.t.IsTuple() }
	prim := func(k cir.Kind) (fact, bool, bool) {
		t := bytecode.Prim(k)
		return fact{t: t, ok: typed(t)}, true, typed(t)
	}
	switch in.Op {
	case bytecode.OpConst:
		if !canonical(in.Val) {
			return fact{}, false, false
		}
		return prim(in.Val.K)
	case bytecode.OpLoad:
		s := cm.slots[in.A]
		return s, true, s.ok
	case bytecode.OpStore:
		return fact{}, false, cm.slots[in.A].ok
	case bytecode.OpGoto, bytecode.OpReturn:
		return fact{}, false, true
	case bytecode.OpBrFalse, bytecode.OpBrTrue:
		return fact{}, false, scalar(ops[0])
	case bytecode.OpALoad:
		if !ops[0].t.Array || !scalar(ops[1]) {
			return fact{}, false, false
		}
		return prim(ops[0].t.Kind)
	case bytecode.OpAStore:
		return fact{}, false, ops[0].t.Array && scalar(ops[1]) && scalar(ops[2])
	case bytecode.OpArrayLen:
		if !ops[0].t.Array {
			return fact{}, false, false
		}
		return prim(cir.Int)
	case bytecode.OpNewArray:
		if !scalar(ops[0]) {
			return fact{}, false, false
		}
		t := bytecode.ArrayOf(in.Kind)
		return fact{t: t, ok: typed(t)}, true, typed(t)
	case bytecode.OpGetField:
		t := ops[0].t
		if !t.IsTuple() || in.A >= len(t.Tuple) {
			return fact{}, false, false
		}
		return fact{t: t.Tuple[in.A], ok: true}, true, true
	case bytecode.OpNewTuple:
		fields := make([]bytecode.TypeDesc, len(ops))
		for i, o := range ops {
			fields[i] = o.t
		}
		t := bytecode.TupleOf(fields...)
		return fact{t: t, ok: typed(t)}, true, typed(t)
	case bytecode.OpGetStatic:
		if sf := cm.c.Static(in.Sym); sf != nil {
			f := staticShape(sf, in.Kind)
			return f, true, f.ok
		}
		// An unknown static always traps; what follows never runs.
		t := bytecode.ArrayOf(in.Kind)
		return fact{t: t, ok: typed(t)}, true, typed(t)
	case bytecode.OpBin:
		if !scalar(ops[0]) || !scalar(ops[1]) {
			return fact{}, false, false
		}
		if in.Bin.IsCompare() || in.Bin == cir.LAnd || in.Bin == cir.LOr {
			return prim(cir.Bool)
		}
		return prim(in.Kind)
	case bytecode.OpUn:
		x := ops[0]
		switch {
		case !scalar(x):
		case in.Un == cir.Not:
			return prim(cir.Bool)
		case in.Un == cir.Neg, in.Un == cir.BitNot && !x.t.Kind.IsFloat():
			return prim(x.t.Kind)
		}
		return fact{}, false, false
	case bytecode.OpCast:
		if !scalar(ops[0]) {
			return fact{}, false, false
		}
		return prim(in.Kind)
	case bytecode.OpIntrin:
		for _, o := range ops {
			if !scalar(o) {
				return fact{}, false, false
			}
		}
		return prim(in.Kind)
	}
	return fact{}, false, false
}

// pops is the number of operands in pops off the stack.
func (cm *compiledMethod) pops(in bytecode.Instr) int {
	switch in.Op {
	case bytecode.OpStore, bytecode.OpBrFalse, bytecode.OpBrTrue,
		bytecode.OpArrayLen, bytecode.OpNewArray, bytecode.OpGetField,
		bytecode.OpCast, bytecode.OpUn:
		return 1
	case bytecode.OpALoad, bytecode.OpBin:
		return 2
	case bytecode.OpAStore:
		return 3
	case bytecode.OpNewTuple, bytecode.OpIntrin:
		return in.A
	case bytecode.OpReturn:
		if cm.retVoid {
			return 0
		}
		return 1
	}
	return 0
}

// isRoot reports whether in is a statement: it ends an expression tree
// without pushing.
func isRoot(in bytecode.Instr) bool {
	switch in.Op {
	case bytecode.OpStore, bytecode.OpAStore, bytecode.OpGoto,
		bytecode.OpBrFalse, bytecode.OpBrTrue, bytecode.OpReturn:
		return true
	}
	return false
}

// simulate replays block blk on a stack of shapes under the current slot
// facts. It reports whether the block can be lowered, and demotes (and
// reports) every slot a store in it gives another shape. A lowered block
// also gets its steps and Counts delta.
func (cm *compiledMethod) simulate(blk *blockInfo) (ok, demoted bool) {
	var stack []fact
	var counts Counts
	for _, in := range cm.m.Code[blk.start:blk.end] {
		n := cm.pops(in)
		ops := stack[len(stack)-n:]
		res, push, good := cm.step(in, ops)
		if in.Op == bytecode.OpStore && good {
			if s := &cm.slots[in.A]; !ops[0].t.Equal(s.t) {
				s.ok, good, demoted = false, false, true
			}
		}
		// A statement over a deeper stack would run the pending
		// operands after it; kdsl never emits one, so leave it to the
		// interpreter.
		if !good || isRoot(in) && len(stack) != n {
			return false, demoted
		}
		negFloat := in.Op == bytecode.OpUn && ops[0].t.Kind.IsFloat()
		stack = stack[:len(stack)-n]
		if push {
			stack = append(stack, res)
		}
		counts.charge(&in, negFloat)
	}
	blk.steps = int64(blk.end - blk.start)
	blk.counts = counts
	return true, demoted
}

// trees counts the statements of a lowered block whose tree spans two or
// more instructions.
func (cm *compiledMethod) trees(blk *blockInfo) int {
	n, from := 0, blk.start
	for pc := blk.start; pc < blk.end; pc++ {
		if isRoot(cm.m.Code[pc]) {
			if pc > from {
				n++
			}
			from = pc + 1
		}
	}
	return n
}

// charge counts in into c: the cost model's one mapping from
// instructions to events, which the interpreter charges per instruction
// and the analysis sums per block. negFloat tells whether a Neg's
// operand is floating.
func (c *Counts) charge(in *bytecode.Instr, negFloat bool) {
	switch in.Op {
	case bytecode.OpConst, bytecode.OpLoad, bytecode.OpStore, bytecode.OpGetStatic:
		c.LoadStore++
	case bytecode.OpALoad, bytecode.OpAStore:
		if isByteArrayKind(in.Kind) {
			c.ByteArrayOps++
		} else {
			c.ArrayOps++
		}
	case bytecode.OpArrayLen, bytecode.OpCast:
		c.ALU++
	case bytecode.OpNewArray, bytecode.OpNewTuple:
		c.Allocs++
	case bytecode.OpGetField:
		c.FieldOps++
	case bytecode.OpIntrin:
		c.Intrins++
	case bytecode.OpGoto, bytecode.OpBrFalse, bytecode.OpBrTrue:
		c.Branches++
	case bytecode.OpBin:
		if in.Kind.IsFloat() {
			c.FpALU++
		} else {
			c.ALU++
		}
	case bytecode.OpUn:
		switch {
		case in.Un == cir.Neg && negFloat:
			c.FpALU++
		case in.Un == cir.Neg, in.Un == cir.Not, in.Un == cir.BitNot:
			c.ALU++
		}
	}
}

// sub takes o back out of c.
func (c *Counts) sub(o *Counts) {
	c.ALU -= o.ALU
	c.FpALU -= o.FpALU
	c.ArrayOps -= o.ArrayOps
	c.ByteArrayOps -= o.ByteArrayOps
	c.FieldOps -= o.FieldOps
	c.Allocs -= o.Allocs
	c.Branches -= o.Branches
	c.Intrins -= o.Intrins
	c.LoadStore -= o.LoadStore
	c.Invokes -= o.Invokes
}
