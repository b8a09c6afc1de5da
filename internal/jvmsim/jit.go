package jvmsim

// The template JIT: Compile translates verified, structurally well-formed
// bytecode once into direct-threaded chains of Go closures — one closure
// per instruction, with fused "superinstructions" for the hot quickened
// sequences (load+load+ALU, array-load+bounds-check, field-get+push) —
// executing on a reusable frame arena of 32-byte cells (a scalar held in
// place plus one reference word for arrays and tuples), which also
// recycles the arrays an invocation allocated and did not return, so a
// task allocates only what escapes in its result. Values convert to and
// from the exported Val only at the invocation boundary. The compiled
// form preserves the JVM cost model exactly: identical Counts tallies
// (including on error paths), identical MaxSteps semantics (one step
// per fused component), and identical outputs and error messages. The
// differential property and fuzz tests in internal/apps prove
// interpreter and JIT bit-identical over all twelve workloads, which is
// what keeps the Fig. 3/4 numbers the suite computes on the JIT
// byte-identical to the interpreter oracle's.

import (
	"fmt"
	"sync"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// retPC is the next-pc sentinel meaning "method returned" (or failed —
// frame.err distinguishes).
const retPC = -1

// opFunc executes one compiled instruction (or one fused
// superinstruction) against a frame and returns the next instruction
// index, or retPC.
type opFunc func(fr *frame) int

// cell is one operand-stack or locals slot of a frame. A scalar lives in
// s with ref nil, so a scalar write moves 24 pointer-free bytes and pays
// no write barrier. An array or tuple is ref, pointing at the Val that
// holds it (an argument, a tuple field, a static, or a frame box); s
// mirrors that Val's S, so reading a reference cell as a scalar sees
// what the interpreter's Val would.
type cell struct {
	s   cir.Value
	ref *Val
}

// cellOf views *v as a cell. Plain scalars are copied in place; any
// other value is referenced, so v must outlive the cell's use.
func cellOf(v *Val) cell {
	if v.Arr == nil && v.Tup == nil && !v.IsArr && !v.IsTup {
		return cell{s: v.S}
	}
	return cell{s: v.S, ref: v}
}

// val converts the cell back to the exported Val.
func (c *cell) val() Val {
	if c.ref == nil {
		return Val{S: c.s}
	}
	return *c.ref
}

// array returns the array the cell refers to; ok is false when it holds
// none (the interpreter's IsArr test).
func (c *cell) array() (arr []cir.Value, ok bool) {
	if c.ref == nil || !c.ref.IsArr {
		return nil, false
	}
	return c.ref.Arr, true
}

// field returns tuple field fi of the cell; ok is false when the cell
// holds no tuple or the tuple has no such field.
func (c *cell) field(fi int) (f *Val, ok bool) {
	if c.ref == nil || !c.ref.IsTup || fi >= len(c.ref.Tup) {
		return nil, false
	}
	return &c.ref.Tup[fi], true
}

// loadVal sets *dst to the cell view of *v (see cellOf).
func loadVal(dst *cell, v *Val) {
	c := cellOf(v)
	copyCell(dst, &c)
}

// maxBoxes bounds the frame's box slab and maxFree its free list of
// recycled arrays. An invocation that allocates more arrays or tuples
// than the slab holds boxes the rest on the heap and leaves those arrays
// to the garbage collector, so a kernel allocating in a loop holds at
// most maxBoxes arrays alive past their last use and keeps at most
// maxFree.
const (
	maxBoxes = 32
	maxFree  = 32
)

// frame is the reusable per-method execution arena: a preallocated
// operand stack (sized to the method's verified maximum depth), the
// locals array, the step budget, and the counts accumulated by this
// invocation. One frame exists per compiled method per VM — the
// instruction set has no method calls, so invocations never nest.
type frame struct {
	stack  []cell
	locals []cell
	sp     int
	steps  int64
	budget int64
	counts Counts
	ret    cell
	err    error
	name   string
	// intrinScratch avoids the per-intrinsic argument allocation the
	// interpreter pays (EvalIntrinsic does not retain the slice).
	intrinScratch [4]cir.Value
	// args holds the invocation's arguments, which argument cells
	// reference.
	args []Val
	// boxes back the array and tuple cells the invocation creates;
	// nbox counts them, those past the slab on the heap. Boxes never
	// leave the invocation — its result is converted to a Val by value
	// — so the slab is reused by the next. It starts at one box per
	// allocation site and grows, up to maxBoxes, after an invocation
	// outruns it.
	boxes []Val
	nbox  int
	// free holds arrays earlier invocations allocated and did not
	// return; OpNewArray reuses one of the requested length.
	free [][]cir.Value
}

func (fr *frame) overBudget() int {
	fr.err = fmt.Errorf("jvmsim: %s exceeded step budget", fr.name)
	return retPC
}

func (fr *frame) fail(err error) int {
	fr.err = err
	return retPC
}

// compiledMethod is one method translated to closure chains.
type compiledMethod struct {
	m        *bytecode.Method
	ops      []opFunc
	maxStack int
	fused    int
	retVoid  bool
	nLocals  int
	// allocSites counts the method's OpNewArray and OpNewTuple
	// instructions, the initial size of its frames' box slab.
	allocSites int
	// consts is the interned operand pool: fused Load/Const operands
	// resolve to uniform locals slots, constants living in read-only
	// slots past nLocals (see lcSlot).
	consts []cir.Value
}

// Program is a class compiled to closure chains: the unit the JIT caches
// per class. Programs are immutable after Compile and safe for
// concurrent use by many VMs — all per-invocation state lives in each
// VM's frames.
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
	Fused   int // superinstructions emitted (each replaces 2-3 instructions)
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

// Compile translates the class's methods into closure chains. The
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

// compiled resolves the compiled form and reusable frame for m, or nil
// when m is not one of the program's methods (foreign hand-invoked
// methods fall back to the interpreter).
func (vm *VM) compiled(m *bytecode.Method) (*compiledMethod, *frame) {
	switch {
	case m == vm.Class.Call && vm.prog.call != nil:
		if vm.frCall == nil {
			vm.frCall = newFrame(vm.prog.call)
		}
		return vm.prog.call, vm.frCall
	case m == vm.Class.Reduce && vm.prog.reduce != nil:
		if vm.frReduce == nil {
			vm.frReduce = newFrame(vm.prog.reduce)
		}
		return vm.prog.reduce, vm.frReduce
	}
	return nil, nil
}

func newFrame(cm *compiledMethod) *frame {
	fr := &frame{
		stack:  make([]cell, cm.maxStack),
		locals: make([]cell, cm.nLocals+len(cm.consts)),
		name:   cm.m.Name,
		args:   make([]Val, len(cm.m.Params)),
		boxes:  make([]Val, min(cm.allocSites, maxBoxes)),
	}
	// The const pool rides above the addressable locals; verified
	// bytecode cannot store past nLocals, so it is written once here.
	for k, c := range cm.consts {
		fr.locals[cm.nLocals+k] = cell{s: c}
	}
	return fr
}

// invokeCompiled runs one invocation on the frame arena. The reset
// mirrors the interpreter's fresh zeroed locals; counts accumulate
// frame-locally and flush into vm.Counts at return, so the observable
// tallies match the interpreter's incremental ones exactly — including
// the partial tallies of error returns.
func (vm *VM) invokeCompiled(cm *compiledMethod, fr *frame, args []Val) (Val, error) {
	if len(args) != len(cm.m.Params) {
		return Val{}, fmt.Errorf("jvmsim: %s expects %d args, got %d", cm.m.Name, len(cm.m.Params), len(args))
	}
	copy(fr.args, args)
	n := min(len(args), cm.nLocals)
	for i := 0; i < n; i++ {
		fr.locals[i] = cellOf(&fr.args[i])
	}
	for i := n; i < cm.nLocals; i++ {
		fr.locals[i] = cell{}
	}
	fr.sp = 0
	fr.steps = 0
	fr.budget = vm.budget()
	fr.counts = Counts{}
	fr.ret = cell{}
	fr.err = nil
	ops := cm.ops
	for pc := 0; pc != retPC; {
		pc = ops[pc](fr)
	}
	vm.Counts.Add(fr.counts)
	var ret Val
	if fr.err == nil {
		ret = fr.ret.val()
	}
	fr.ret = cell{}
	clear(fr.args)
	fr.recycle(&ret)
	if fr.err != nil {
		return Val{}, fr.err
	}
	return ret, nil
}

// box gives v a frame-owned home for the invocation and returns the
// cell referencing it.
func (fr *frame) box(v Val) cell {
	var b *Val
	if fr.nbox < len(fr.boxes) {
		b = &fr.boxes[fr.nbox]
	} else {
		b = new(Val)
	}
	fr.nbox++
	*b = v
	return cell{s: v.S, ref: b}
}

// newArray is OpNewArray: a zeroed array of n elements of kind, reusing
// a free array of that length when there is one. Reuse is invisible:
// every element is reset to exactly what a fresh array holds.
func (fr *frame) newArray(kind cir.Kind, n int64) cell {
	var arr []cir.Value
	for i, a := range fr.free {
		if int64(len(a)) == n {
			last := len(fr.free) - 1
			arr, fr.free[i], fr.free[last] = a, fr.free[last], nil
			fr.free = fr.free[:last]
			break
		}
	}
	if arr == nil {
		arr = make([]cir.Value, n)
	}
	for j := range arr {
		arr[j] = cir.Value{K: kind}
	}
	return fr.box(Array(arr))
}

// recycle ends an invocation: the arrays it allocated (the array boxes
// of the slab) that ret cannot reach join the bounded free list, and the
// slab is cleared. Nothing else can hold such an array — arrays hold
// only scalars, tuples are immutable, and statics are never assigned —
// so after an error every one of them is free.
func (fr *frame) recycle(ret *Val) {
	for i := range min(fr.nbox, len(fr.boxes)) {
		b := &fr.boxes[i]
		if b.IsArr && len(b.Arr) > 0 && len(fr.free) < maxFree && !reaches(ret, b.Arr) {
			fr.free = append(fr.free, b.Arr)
		}
		*b = Val{}
	}
	if fr.nbox > len(fr.boxes) && len(fr.boxes) < maxBoxes {
		fr.boxes = make([]Val, min(fr.nbox, maxBoxes))
	}
	fr.nbox = 0
}

// reaches reports whether v holds arr (non-empty), directly or through
// tuple fields.
func reaches(v *Val, arr []cir.Value) bool {
	if len(v.Arr) > 0 && &v.Arr[0] == &arr[0] {
		return true
	}
	for i := range v.Tup {
		if reaches(&v.Tup[i], arr) {
			return true
		}
	}
	return false
}

func compileMethod(c *bytecode.Class, m *bytecode.Method) (*compiledMethod, error) {
	leaders := bytecode.Leaders(m)
	retVoid := m.Ret.Kind == cir.Void && !m.Ret.Array && !m.Ret.IsTuple()
	maxStack, err := maxStackDepth(m, leaders, retVoid)
	if err != nil {
		return nil, err
	}
	cm := &compiledMethod{
		m:        m,
		ops:      make([]opFunc, len(m.Code)),
		maxStack: maxStack,
		retVoid:  retVoid,
		nLocals:  len(m.LocalTypes),
	}
	for _, in := range m.Code {
		if in.Op == bytecode.OpNewArray || in.Op == bytecode.OpNewTuple {
			cm.allocSites++
		}
	}
	chargeOnly, arrSlot, castFold, valFold := elideArrayPushes(m, leaders, retVoid)
	claimed := make([]bool, len(m.Code))
	for i := range claimed {
		claimed[i] = chargeOnly[i] || arrSlot[i] >= 0
	}
	for i := 0; i < len(m.Code); {
		switch {
		case chargeOnly[i]:
			cm.ops[i] = cm.chargeLoad(i)
			i++
		case arrSlot[i] >= 0:
			i += cm.emitArrFromLocal(i, arrSlot[i], castFold[i], valFold[i])
		default:
			if n := cm.fuseAt(i, leaders, claimed); n > 0 {
				i += n
				continue
			}
			cm.ops[i] = compileOne(c, m.Name, m.Code[i], i, retVoid)
			i++
		}
	}
	return cm, nil
}

// maxStackDepth sizes the preallocated operand stack. Structural
// verification guarantees the operand stack is empty at every block
// boundary, so a single linear pass with a leader reset is exact.
func maxStackDepth(m *bytecode.Method, leaders []bool, retVoid bool) (int, error) {
	depth, maxDepth := 0, 0
	for i, in := range m.Code {
		if leaders[i] {
			depth = 0
		}
		depth += bytecode.StackEffect(in, retVoid)
		if depth < 0 {
			return 0, fmt.Errorf("jvmsim: jit: %s@%d: stack underflow", m.Name, i)
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return maxDepth, nil
}

// isLC reports whether the instruction is a fusable operand fetch: a
// local load or an immediate constant. Both charge one step and one
// LoadStore count when fused, exactly like the standalone OpLoad/OpConst
// they replace.
func isLC(in bytecode.Instr) bool {
	return in.Op == bytecode.OpLoad || in.Op == bytecode.OpConst
}

// lcSlot resolves a Load/Const operand to a frame locals slot: loads use
// their own slot, constants are interned into a read-only pool appended
// after the method's declared locals (verified bytecode cannot address a
// slot past LocalTypes, so the pool survives every invocation — see
// newFrame). A uniform slot read keeps the fused operand fetch
// branch-free; an isConst test in a shared closure body is unpredictable
// across closure instances and shows up in profiles.
func (cm *compiledMethod) lcSlot(in bytecode.Instr) int {
	if in.Op == bytecode.OpLoad {
		return in.A
	}
	cm.consts = append(cm.consts, in.Val)
	return cm.nLocals + len(cm.consts) - 1
}

// stackPopsPushes returns the operand-stack pops and pushes of one
// instruction (ok=false for opcodes the JIT does not model; callers
// stop analyzing there — the compiled closure traps at runtime anyway).
func stackPopsPushes(in bytecode.Instr, retVoid bool) (pops, pushes int, ok bool) {
	switch in.Op {
	case bytecode.OpConst, bytecode.OpLoad, bytecode.OpGetStatic:
		return 0, 1, true
	case bytecode.OpStore:
		return 1, 0, true
	case bytecode.OpALoad:
		return 2, 1, true
	case bytecode.OpAStore:
		return 3, 0, true
	case bytecode.OpArrayLen, bytecode.OpNewArray, bytecode.OpGetField, bytecode.OpCast:
		return 1, 1, true
	case bytecode.OpUn:
		switch in.Un {
		case cir.Neg, cir.Not, cir.BitNot:
			return 1, 1, true
		}
		// The interpreter pops the operand and pushes nothing for an
		// unknown unary operator.
		return 1, 0, true
	case bytecode.OpNewTuple, bytecode.OpIntrin:
		return in.A, 1, true
	case bytecode.OpGoto:
		return 0, 0, true
	case bytecode.OpBrFalse, bytecode.OpBrTrue:
		return 1, 0, true
	case bytecode.OpReturn:
		if retVoid {
			return 0, 0, true
		}
		return 1, 0, true
	}
	return 0, 0, false
}

// elideArrayPushes finds Load instructions whose pushed value rides the
// operand stack untouched until a later ALoad/AStore in the same basic
// block consumes it as the array operand, with the loaded slot not
// stored to in between. Pushing an array cell costs a 32-byte copy plus
// a write barrier for its reference word, in the hottest loops of array
// kernels, and it is pure traffic: the consumer can read the array
// straight from the (unmodified) local slot. Claimed loads keep their
// position, step, and LoadStore charge but skip the push (chargeOnly);
// claimed consumers pop one operand less and take the array from
// arrSlot's local. castFold marks claimed array loads whose
// trailing Cast folds into the same closure.
//
// The depth simulation tracks the claimed cell at window bottom. Earlier
// claims shift the runtime stack layout relative to this raw simulation,
// but consistently — an elided push and its adjusted consumer cancel —
// so windows stop at already-claimed instructions, where the raw
// bookkeeping would diverge from the runtime stack.
func elideArrayPushes(m *bytecode.Method, leaders []bool, retVoid bool) (chargeOnly []bool, arrSlot []int, castFold, valFold []bool) {
	code := m.Code
	chargeOnly = make([]bool, len(code))
	castFold = make([]bool, len(code))
	valFold = make([]bool, len(code))
	arrSlot = make([]int, len(code))
	for i := range arrSlot {
		arrSlot[i] = -1
	}
	for i, in := range code {
		if in.Op != bytecode.OpLoad || chargeOnly[i] {
			continue
		}
		slot := in.A
		d := 1 // window depth, the loaded cell at bottom
	scan:
		for j := i + 1; j < len(code) && j < i+64; j++ {
			if leaders[j] || chargeOnly[j] || arrSlot[j] >= 0 {
				break
			}
			nj := code[j]
			switch nj.Op {
			case bytecode.OpGoto, bytecode.OpBrFalse, bytecode.OpBrTrue, bytecode.OpReturn:
				break scan
			case bytecode.OpStore:
				if nj.A == slot {
					break scan
				}
			}
			pops, pushes, ok := stackPopsPushes(nj, retVoid)
			if !ok {
				break scan
			}
			if pops >= d {
				// nj consumes the loaded cell. Claim it only when the cell
				// is exactly the array operand of an array access; a short
				// [load arr; load/const idx; aload] stays with the
				// single-dispatch fuseALoad rule instead.
				switch {
				case nj.Op == bytecode.OpALoad && d == 2 && j > i+2:
					chargeOnly[i] = true
					arrSlot[j] = slot
					if j+1 < len(code) && !leaders[j+1] && code[j+1].Op == bytecode.OpCast {
						castFold[j] = true
					}
				case nj.Op == bytecode.OpAStore && d == 3:
					chargeOnly[i] = true
					arrSlot[j] = slot
					// When the stored value is itself a Load/Const push
					// immediately before the astore, elide that push too:
					// the closure reads the value from its slot (valFold).
					if !leaders[j-1] && !chargeOnly[j-1] && arrSlot[j-1] < 0 && isLC(code[j-1]) {
						chargeOnly[j-1] = true
						valFold[j] = true
					}
				}
				break scan
			}
			d += pushes - pops
		}
	}
	return chargeOnly, arrSlot, castFold, valFold
}

// chargeLoad is the compiled form of an elided array push: the Load's
// accounting at its original position, without the push (see
// elideArrayPushes).
func (cm *compiledMethod) chargeLoad(i int) opFunc {
	next := i + 1
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		return next
	}
}

// emitArrFromLocal compiles the consumer of an elided array push: an
// ALoad (optionally with its trailing Cast folded in) or AStore that
// reads the array from the local slot instead of the stack. Returns the
// number of instructions covered.
func (cm *compiledMethod) emitArrFromLocal(i, slot int, fold, vfold bool) int {
	name := cm.m.Name
	in := cm.m.Code[i]
	byteArr := isByteArrayKind(in.Kind)
	if in.Op == bytecode.OpAStore {
		next := i + 1
		if vfold {
			// The stored value's push was elided too (valFold): read it
			// from its slot; only the index crosses the stack.
			vs := cm.lcSlot(cm.m.Code[i-1])
			cm.ops[i] = func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				if byteArr {
					fr.counts.ByteArrayOps++
				} else {
					fr.counts.ArrayOps++
				}
				val := fr.locals[vs].s
				idx := fr.stack[fr.sp-1].s.AsInt()
				fr.sp--
				arr, isArr := fr.locals[slot].array()
				if !isArr {
					return fr.fail(fmt.Errorf("jvmsim: %s@%d: astore on non-array", name, i))
				}
				if idx < 0 || idx >= int64(len(arr)) {
					return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, i, idx, len(arr)))
				}
				arr[idx] = val.Convert(arr[idx].K)
				return next
			}
			cm.fused++
			return 1
		}
		cm.ops[i] = func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			if byteArr {
				fr.counts.ByteArrayOps++
			} else {
				fr.counts.ArrayOps++
			}
			val := fr.stack[fr.sp-1].s
			idx := fr.stack[fr.sp-2].s.AsInt()
			fr.sp -= 2
			arr, isArr := fr.locals[slot].array()
			if !isArr {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: astore on non-array", name, i))
			}
			if idx < 0 || idx >= int64(len(arr)) {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, i, idx, len(arr)))
			}
			arr[idx] = val.Convert(arr[idx].K)
			return next
		}
		cm.fused++
		return 1
	}
	if fold {
		castKind := cm.m.Code[i+1].Kind
		next := i + 2
		cm.ops[i] = func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			if byteArr {
				fr.counts.ByteArrayOps++
			} else {
				fr.counts.ArrayOps++
			}
			idx := fr.stack[fr.sp-1].s.AsInt()
			arr, isArr := fr.locals[slot].array()
			if !isArr {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: aload on non-array", name, i))
			}
			if idx < 0 || idx >= int64(len(arr)) {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, i, idx, len(arr)))
			}
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.ALU++
			setScalar(&fr.stack[fr.sp-1], arr[idx].Convert(castKind))
			return next
		}
		cm.ops[i+1] = trapOp
		cm.fused++
		return 2
	}
	next := i + 1
	cm.ops[i] = func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		if byteArr {
			fr.counts.ByteArrayOps++
		} else {
			fr.counts.ArrayOps++
		}
		idx := fr.stack[fr.sp-1].s.AsInt()
		arr, isArr := fr.locals[slot].array()
		if !isArr {
			return fr.fail(fmt.Errorf("jvmsim: %s@%d: aload on non-array", name, i))
		}
		if idx < 0 || idx >= int64(len(arr)) {
			return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, i, idx, len(arr)))
		}
		setScalar(&fr.stack[fr.sp-1], arr[idx])
		return next
	}
	cm.fused++
	return 1
}

// fuseAt tries each superinstruction rule at pc i and returns the number
// of bytecode instructions the emitted closure covers (0 = no rule
// applies). Rules are matched longest-first, heads are Load/Const
// operand fetches or an ALU op consuming the stack, and fusion never
// crosses a basic-block boundary: a swallowed instruction must not be a
// branch target, or the jump would skip the fused head and land
// mid-superinstruction. Every fused closure charges one step and one
// count per swallowed component, with a budget check between
// components, so Counts and MaxSteps semantics stay byte-identical to
// the interpreter.
func (cm *compiledMethod) fuseAt(i int, leaders, claimed []bool) int {
	code := cm.m.Code
	free := func(j int) bool { return j < len(code) && !leaders[j] && !claimed[j] }
	is := func(j int, op bytecode.Op) bool { return free(j) && code[j].Op == op }
	isBranch := func(j int) bool {
		return free(j) && (code[j].Op == bytecode.OpBrFalse || code[j].Op == bytecode.OpBrTrue)
	}
	if !isLC(code[i]) {
		// ALU-headed tails: the binary op's operands are already on the
		// stack, its consumer folds in.
		switch {
		case code[i].Op == bytecode.OpBin && isBranch(i+1):
			cm.ops[i] = cm.fuseStackBinBranch(i)
			return cm.cover(i, 2)
		case code[i].Op == bytecode.OpBin && is(i+1, bytecode.OpStore):
			cm.ops[i] = cm.fuseStackBinStore(i)
			return cm.cover(i, 2)
		}
		return 0
	}
	if free(i+1) && isLC(code[i+1]) {
		switch {
		// load/const a; load/const b; bin [; brX | store] — the hot
		// quickened ALU sequences, loop conditions and accumulator
		// updates included.
		case is(i+2, bytecode.OpBin) && isBranch(i+3):
			cm.ops[i] = cm.fuseBinBranch(i, cm.lcSlot(code[i]), cm.lcSlot(code[i+1]))
			return cm.cover(i, 4)
		case is(i+2, bytecode.OpBin) && is(i+3, bytecode.OpStore):
			cm.ops[i] = cm.fuseBinStore(i, cm.lcSlot(code[i]), cm.lcSlot(code[i+1]))
			return cm.cover(i, 4)
		case is(i+2, bytecode.OpBin):
			cm.ops[i] = cm.fuseBin(i, cm.lcSlot(code[i]), cm.lcSlot(code[i+1]))
			return cm.cover(i, 3)
		// load arr; load/const idx; aload [; cast] — array load + bounds
		// check, converting in place when a cast trails.
		case is(i+2, bytecode.OpALoad) && code[i].Op == bytecode.OpLoad:
			fold := is(i+3, bytecode.OpCast)
			cm.ops[i] = cm.fuseALoad(i, cm.lcSlot(code[i+1]), fold)
			if fold {
				return cm.cover(i, 4)
			}
			return cm.cover(i, 3)
		// load/const a; load/const b; intrin — two-argument Math call.
		case is(i+2, bytecode.OpIntrin) && code[i+2].A == 2:
			cm.ops[i] = cm.fuseIntrin2(i, cm.lcSlot(code[i]), cm.lcSlot(code[i+1]))
			return cm.cover(i, 3)
		}
	}
	switch {
	// load/const tup; getfield — boxed field get plus push.
	case is(i+1, bytecode.OpGetField):
		cm.ops[i] = cm.fuseGetField(i, cm.lcSlot(code[i]))
		return cm.cover(i, 2)
	// <stack>; load/const b; bin [; store] — right operand resolved at
	// compile time, optionally storing the result straight to a local.
	case is(i+1, bytecode.OpBin) && is(i+2, bytecode.OpStore):
		cm.ops[i] = cm.fuseRBinStore(i, cm.lcSlot(code[i]))
		return cm.cover(i, 3)
	case is(i+1, bytecode.OpBin):
		cm.ops[i] = cm.fuseStackBin(i, cm.lcSlot(code[i]))
		return cm.cover(i, 2)
	// load/const a; intrin — one-argument Math call.
	case is(i+1, bytecode.OpIntrin) && code[i+1].A == 1:
		cm.ops[i] = cm.fuseIntrin1(i, cm.lcSlot(code[i]))
		return cm.cover(i, 2)
	// load/const a; store b — local-to-local move.
	case is(i+1, bytecode.OpStore):
		cm.ops[i] = cm.fuseMove(i, cm.lcSlot(code[i]))
		return cm.cover(i, 2)
	}
	return 0
}

// cover marks the tail slots of a fused superinstruction. They are
// unreachable by construction (not leaders, and fall-through enters
// through the fused head); the trap preserves a defined failure if that
// invariant is ever broken.
func (cm *compiledMethod) cover(i, n int) int {
	cm.fused++
	for j := i + 1; j < i+n; j++ {
		cm.ops[j] = trapOp
	}
	return n
}

func trapOp(fr *frame) int {
	return fr.fail(fmt.Errorf("jvmsim: jit: %s: jump into fused superinstruction", fr.name))
}

// setScalar overwrites *dst with the scalar v. Only the 24-byte payload
// moves; the reference word is written (with its write barrier) only
// when dst held an array or tuple, which on a reused frame whose slots
// are rewritten with scalars all loop long is rare.
func setScalar(dst *cell, v cir.Value) {
	dst.s = v
	if dst.ref != nil {
		dst.ref = nil
	}
}

// copyCell moves *src into *dst, writing the reference word only when
// either cell holds a reference.
func copyCell(dst, src *cell) {
	if dst.ref == nil && src.ref == nil {
		dst.s = src.s
		return
	}
	*dst = *src
}

// binFn is a compile-time-specialized binary operator: the op/kind
// dispatch of binOp resolved once at compile time. Every operator but
// the logical pair is the Value form of cir's operator table, the one
// definition cir.EvalBinary also applies, so results and error text match
// the interpreter's.
type binFn func(l, r cir.Value) (cir.Value, error)

func binFnFor(in bytecode.Instr) binFn {
	switch in.Bin {
	case cir.LAnd:
		return func(l, r cir.Value) (cir.Value, error) { return cir.BoolVal(l.IsTrue() && r.IsTrue()), nil }
	case cir.LOr:
		return func(l, r cir.Value) (cir.Value, error) { return cir.BoolVal(l.IsTrue() || r.IsTrue()), nil }
	}
	return cir.BinaryFunc(in.Bin, in.Kind)
}

// evalBin runs the Bin component at pc through its specialized operator,
// charging the ALU bucket on success. On failure the frame error is set
// and ok is false.
func (fr *frame) evalBin(name string, pc int, bf binFn, fp bool, l, r cir.Value) (cir.Value, bool) {
	v, err := bf(l, r)
	if err != nil {
		fr.fail(fmt.Errorf("jvmsim: %s@%d: %w", name, pc, err))
		return cir.Value{}, false
	}
	if fp {
		fr.counts.FpALU++
	} else {
		fr.counts.ALU++
	}
	return v, true
}

func (cm *compiledMethod) fuseBin(i, s1, s2 int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i+2])
	fp := cm.m.Code[i+2].Kind.IsFloat()
	pcBin := i + 2
	next := i + 3
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		l := fr.locals[s1].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		r := fr.locals[s2].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		v, ok := fr.evalBin(name, pcBin, bf, fp, l, r)
		if !ok {
			return retPC
		}
		setScalar(&fr.stack[fr.sp], v)
		fr.sp++
		return next
	}
}

// fuseBinBranch folds a Load/Const pair, a comparison, and the
// conditional branch consuming it into one closure: the hot loop-header
// shape. The compare result never touches the operand stack.
func (cm *compiledMethod) fuseBinBranch(i, s1, s2 int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i+2])
	fp := cm.m.Code[i+2].Kind.IsFloat()
	br := cm.m.Code[i+3]
	wantTrue := br.Op == bytecode.OpBrTrue
	target := br.Target
	pcBin := i + 2
	next := i + 4
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		l := fr.locals[s1].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		r := fr.locals[s2].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		v, ok := fr.evalBin(name, pcBin, bf, fp, l, r)
		if !ok {
			return retPC
		}
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.Branches++
		if v.IsTrue() == wantTrue {
			return target
		}
		return next
	}
}

// fuseBinStore folds a Load/Const pair, an ALU op, and the store of its
// result: the accumulator-update shape (`acc = a op b`).
func (cm *compiledMethod) fuseBinStore(i, s1, s2 int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i+2])
	fp := cm.m.Code[i+2].Kind.IsFloat()
	dst := cm.m.Code[i+3].A
	pcBin := i + 2
	next := i + 4
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		l := fr.locals[s1].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		r := fr.locals[s2].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		v, ok := fr.evalBin(name, pcBin, bf, fp, l, r)
		if !ok {
			return retPC
		}
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		setScalar(&fr.locals[dst], v)
		return next
	}
}

// fuseStackBin folds a Load/Const right operand into the binary op
// consuming it; the left operand comes off the stack.
func (cm *compiledMethod) fuseStackBin(i, s2 int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i+1])
	fp := cm.m.Code[i+1].Kind.IsFloat()
	pcBin := i + 1
	next := i + 2
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		r := fr.locals[s2].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		l := fr.stack[fr.sp-1].s
		v, ok := fr.evalBin(name, pcBin, bf, fp, l, r)
		if !ok {
			return retPC
		}
		setScalar(&fr.stack[fr.sp-1], v)
		return next
	}
}

// fuseRBinStore folds a Load/Const right operand, the binary op
// consuming it (left operand from the stack), and the store of the
// result: the `acc = <expr> op b` tail shape.
func (cm *compiledMethod) fuseRBinStore(i, s2 int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i+1])
	fp := cm.m.Code[i+1].Kind.IsFloat()
	dst := cm.m.Code[i+2].A
	pcBin := i + 1
	next := i + 3
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		r := fr.locals[s2].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		l := fr.stack[fr.sp-1].s
		v, ok := fr.evalBin(name, pcBin, bf, fp, l, r)
		if !ok {
			return retPC
		}
		fr.sp--
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		setScalar(&fr.locals[dst], v)
		return next
	}
}

// fuseStackBinBranch folds a comparison whose operands are on the stack
// into the conditional branch consuming it.
func (cm *compiledMethod) fuseStackBinBranch(i int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i])
	fp := cm.m.Code[i].Kind.IsFloat()
	br := cm.m.Code[i+1]
	wantTrue := br.Op == bytecode.OpBrTrue
	target := br.Target
	next := i + 2
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		r := fr.stack[fr.sp-1].s
		l := fr.stack[fr.sp-2].s
		fr.sp -= 2
		v, ok := fr.evalBin(name, i, bf, fp, l, r)
		if !ok {
			return retPC
		}
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.Branches++
		if v.IsTrue() == wantTrue {
			return target
		}
		return next
	}
}

// fuseStackBinStore folds a binary op whose operands are on the stack
// into the store of its result.
func (cm *compiledMethod) fuseStackBinStore(i int) opFunc {
	name := cm.m.Name
	bf := binFnFor(cm.m.Code[i])
	fp := cm.m.Code[i].Kind.IsFloat()
	dst := cm.m.Code[i+1].A
	next := i + 2
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		r := fr.stack[fr.sp-1].s
		l := fr.stack[fr.sp-2].s
		fr.sp -= 2
		v, ok := fr.evalBin(name, i, bf, fp, l, r)
		if !ok {
			return retPC
		}
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		setScalar(&fr.locals[dst], v)
		return next
	}
}

// fuseALoad folds [load arr; load/const idx; aload] — and the trailing
// cast when one follows — into one closure reading the array straight
// from its local slot.
func (cm *compiledMethod) fuseALoad(i, sIdx int, fold bool) opFunc {
	name := cm.m.Name
	sArr := cm.m.Code[i].A
	byteArr := isByteArrayKind(cm.m.Code[i+2].Kind)
	pcA := i + 2
	if fold {
		castKind := cm.m.Code[i+3].Kind
		next := i + 4
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.LoadStore++
			arr, isArr := fr.locals[sArr].array()
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.LoadStore++
			idx := fr.locals[sIdx].s.AsInt()
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			if byteArr {
				fr.counts.ByteArrayOps++
			} else {
				fr.counts.ArrayOps++
			}
			if !isArr {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: aload on non-array", name, pcA))
			}
			if idx < 0 || idx >= int64(len(arr)) {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, pcA, idx, len(arr)))
			}
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.ALU++
			setScalar(&fr.stack[fr.sp], arr[idx].Convert(castKind))
			fr.sp++
			return next
		}
	}
	next := i + 3
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		arr, isArr := fr.locals[sArr].array()
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		idx := fr.locals[sIdx].s.AsInt()
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		if byteArr {
			fr.counts.ByteArrayOps++
		} else {
			fr.counts.ArrayOps++
		}
		if !isArr {
			return fr.fail(fmt.Errorf("jvmsim: %s@%d: aload on non-array", name, pcA))
		}
		if idx < 0 || idx >= int64(len(arr)) {
			return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, pcA, idx, len(arr)))
		}
		setScalar(&fr.stack[fr.sp], arr[idx])
		fr.sp++
		return next
	}
}

func (cm *compiledMethod) fuseIntrin2(i, s1, s2 int) opFunc {
	name := cm.m.Name
	sym, kind := cm.m.Code[i+2].Sym, cm.m.Code[i+2].Kind
	pcI := i + 2
	next := i + 3
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		fr.intrinScratch[0] = fr.locals[s1].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		fr.intrinScratch[1] = fr.locals[s2].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.Intrins++
		v, err := cir.EvalIntrinsic(sym, kind, fr.intrinScratch[:2])
		if err != nil {
			return fr.fail(fmt.Errorf("jvmsim: %s@%d: %w", name, pcI, err))
		}
		setScalar(&fr.stack[fr.sp], v)
		fr.sp++
		return next
	}
}

func (cm *compiledMethod) fuseIntrin1(i, s1 int) opFunc {
	name := cm.m.Name
	sym, kind := cm.m.Code[i+1].Sym, cm.m.Code[i+1].Kind
	pcI := i + 1
	next := i + 2
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		fr.intrinScratch[0] = fr.locals[s1].s
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.Intrins++
		v, err := cir.EvalIntrinsic(sym, kind, fr.intrinScratch[:1])
		if err != nil {
			return fr.fail(fmt.Errorf("jvmsim: %s@%d: %w", name, pcI, err))
		}
		setScalar(&fr.stack[fr.sp], v)
		fr.sp++
		return next
	}
}

func (cm *compiledMethod) fuseGetField(i, s1 int) opFunc {
	name := cm.m.Name
	fi := cm.m.Code[i+1].A
	pcG := i + 1
	next := i + 2
	errBad := fmt.Errorf("jvmsim: %s@%d: bad getfield _%d", name, pcG, fi+1)
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		tup := &fr.locals[s1]
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.FieldOps++
		f, ok := tup.field(fi)
		if !ok {
			return fr.fail(errBad)
		}
		loadVal(&fr.stack[fr.sp], f)
		fr.sp++
		return next
	}
}

// fuseMove folds a Load/Const straight into the store consuming it — a
// local-to-local (or pooled-immediate-to-local) move with no stack
// traffic.
func (cm *compiledMethod) fuseMove(i, s1 int) opFunc {
	dst := cm.m.Code[i+1].A
	next := i + 2
	return func(fr *frame) int {
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		if fr.steps++; fr.steps > fr.budget {
			return fr.overBudget()
		}
		fr.counts.LoadStore++
		copyCell(&fr.locals[dst], &fr.locals[s1])
		return next
	}
}

// compileOne translates a single instruction into its closure. Each
// closure mirrors the interpreter's switch arm exactly: the same count
// bucket, charged at the same point relative to the error checks, with
// the same error text.
func compileOne(c *bytecode.Class, name string, in bytecode.Instr, i int, retVoid bool) opFunc {
	next := i + 1
	switch in.Op {
	case bytecode.OpConst:
		v := in.Val
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.LoadStore++
			setScalar(&fr.stack[fr.sp], v)
			fr.sp++
			return next
		}
	case bytecode.OpLoad:
		slot := in.A
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.LoadStore++
			copyCell(&fr.stack[fr.sp], &fr.locals[slot])
			fr.sp++
			return next
		}
	case bytecode.OpStore:
		slot := in.A
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.LoadStore++
			fr.sp--
			copyCell(&fr.locals[slot], &fr.stack[fr.sp])
			return next
		}
	case bytecode.OpALoad:
		byteArr := isByteArrayKind(in.Kind)
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			if byteArr {
				fr.counts.ByteArrayOps++
			} else {
				fr.counts.ArrayOps++
			}
			idx := fr.stack[fr.sp-1].s.AsInt()
			arr, isArr := fr.stack[fr.sp-2].array()
			fr.sp -= 2
			if !isArr {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: aload on non-array", name, i))
			}
			if idx < 0 || idx >= int64(len(arr)) {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, i, idx, len(arr)))
			}
			setScalar(&fr.stack[fr.sp], arr[idx])
			fr.sp++
			return next
		}
	case bytecode.OpAStore:
		byteArr := isByteArrayKind(in.Kind)
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			if byteArr {
				fr.counts.ByteArrayOps++
			} else {
				fr.counts.ArrayOps++
			}
			val := fr.stack[fr.sp-1].s
			idx := fr.stack[fr.sp-2].s.AsInt()
			arr, isArr := fr.stack[fr.sp-3].array()
			fr.sp -= 3
			if !isArr {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: astore on non-array", name, i))
			}
			if idx < 0 || idx >= int64(len(arr)) {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, i, idx, len(arr)))
			}
			arr[idx] = val.Convert(arr[idx].K)
			return next
		}
	case bytecode.OpArrayLen:
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.ALU++
			n := 0
			if ref := fr.stack[fr.sp-1].ref; ref != nil {
				n = len(ref.Arr)
			}
			setScalar(&fr.stack[fr.sp-1], cir.IntVal(cir.Int, int64(n)))
			return next
		}
	case bytecode.OpNewArray:
		kind := in.Kind
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.Allocs++
			fr.stack[fr.sp-1] = fr.newArray(kind, fr.stack[fr.sp-1].s.AsInt())
			return next
		}
	case bytecode.OpGetField:
		fi := in.A
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.FieldOps++
			f, ok := fr.stack[fr.sp-1].field(fi)
			if !ok {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: bad getfield _%d", name, i, fi+1))
			}
			loadVal(&fr.stack[fr.sp-1], f)
			return next
		}
	case bytecode.OpNewTuple:
		n := in.A
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.Allocs++
			fields := make([]Val, n)
			for j := range fields {
				fields[j] = fr.stack[fr.sp-n+j].val()
			}
			fr.sp -= n
			fr.stack[fr.sp] = fr.box(Tuple(fields...))
			fr.sp++
			return next
		}
	case bytecode.OpGetStatic:
		sf := c.Static(in.Sym)
		if sf == nil {
			errUnknown := fmt.Errorf("jvmsim: %s@%d: unknown static %q", name, i, in.Sym)
			return func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				fr.counts.LoadStore++
				return fr.fail(errUnknown)
			}
		}
		// The static's box is shared by every VM running the program;
		// nothing writes it.
		v := cellOf(&Val{Arr: sf.Data, IsArr: true})
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.LoadStore++
			fr.stack[fr.sp] = v
			fr.sp++
			return next
		}
	case bytecode.OpBin:
		bi := in
		fp := in.Kind.IsFloat()
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			r := fr.stack[fr.sp-1].s
			l := fr.stack[fr.sp-2].s
			fr.sp--
			v, err := binOp(bi, l, r)
			if err != nil {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: %w", name, i, err))
			}
			if fp {
				fr.counts.FpALU++
			} else {
				fr.counts.ALU++
			}
			setScalar(&fr.stack[fr.sp-1], v)
			return next
		}
	case bytecode.OpUn:
		switch in.Un {
		case cir.Neg:
			return func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				x := fr.stack[fr.sp-1].s
				if x.K.IsFloat() {
					setScalar(&fr.stack[fr.sp-1], cir.FloatVal(x.K, -x.F))
					fr.counts.FpALU++
				} else {
					setScalar(&fr.stack[fr.sp-1], cir.IntVal(x.K, -x.I))
					fr.counts.ALU++
				}
				return next
			}
		case cir.Not:
			return func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				x := fr.stack[fr.sp-1].s
				setScalar(&fr.stack[fr.sp-1], cir.BoolVal(!x.IsTrue()))
				fr.counts.ALU++
				return next
			}
		case cir.BitNot:
			return func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				x := fr.stack[fr.sp-1].s
				setScalar(&fr.stack[fr.sp-1], cir.IntVal(x.K, ^x.I))
				fr.counts.ALU++
				return next
			}
		default:
			// The interpreter pops the operand and pushes nothing for an
			// unknown unary operator; mirror that exactly.
			return func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				fr.sp--
				return next
			}
		}
	case bytecode.OpCast:
		kind := in.Kind
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.ALU++
			setScalar(&fr.stack[fr.sp-1], fr.stack[fr.sp-1].s.Convert(kind))
			return next
		}
	case bytecode.OpIntrin:
		sym, kind, n := in.Sym, in.Kind, in.A
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.Intrins++
			var args []cir.Value
			if n <= len(fr.intrinScratch) {
				args = fr.intrinScratch[:n]
			} else {
				args = make([]cir.Value, n)
			}
			for j := 0; j < n; j++ {
				args[j] = fr.stack[fr.sp-n+j].s
			}
			fr.sp -= n
			v, err := cir.EvalIntrinsic(sym, kind, args)
			if err != nil {
				return fr.fail(fmt.Errorf("jvmsim: %s@%d: %w", name, i, err))
			}
			setScalar(&fr.stack[fr.sp], v)
			fr.sp++
			return next
		}
	case bytecode.OpGoto:
		target := in.Target
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.Branches++
			return target
		}
	case bytecode.OpBrFalse:
		target := in.Target
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.Branches++
			fr.sp--
			if !fr.stack[fr.sp].s.IsTrue() {
				return target
			}
			return next
		}
	case bytecode.OpBrTrue:
		target := in.Target
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.counts.Branches++
			fr.sp--
			if fr.stack[fr.sp].s.IsTrue() {
				return target
			}
			return next
		}
	case bytecode.OpReturn:
		if retVoid {
			return func(fr *frame) int {
				if fr.steps++; fr.steps > fr.budget {
					return fr.overBudget()
				}
				fr.ret = cell{}
				return retPC
			}
		}
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			fr.sp--
			fr.ret = fr.stack[fr.sp]
			return retPC
		}
	default:
		errUnknown := fmt.Errorf("jvmsim: %s@%d: unknown opcode", name, i)
		return func(fr *frame) int {
			if fr.steps++; fr.steps > fr.budget {
				return fr.overBudget()
			}
			return fr.fail(errUnknown)
		}
	}
}
