package jvmsim

import (
	"fmt"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// frame is one lowering of a compiled method and its reusable execution
// arena: the typed local slots its closures read and write, the step
// budget and the block entries the invocation has charged. A frame runs
// one invocation at a time; the method keeps the idle ones (see
// compiledMethod.take).
type frame struct {
	cm     *compiledMethod
	ints   []int64
	floats []float64
	arrs   [][]cir.Value
	tups   [][]Val
	blocks []block
	steps  int64
	budget int64
	ret    Val
	// fresh holds the arrays the invocation allocated (up to maxFresh);
	// free is the invoking VM's list of arrays its earlier invocations
	// allocated and did not return, which OpNewArray reuses at their
	// length. The list lives on the VM, so it dies with the VM.
	fresh [][]cir.Value
	free  *[][]cir.Value
}

// block is one lowered basic block. run executes its statements and
// returns the successor block, or nil once the method returned. A block
// the analysis left to the interpreter has no run. hits counts the
// entries of the current invocation, which tally turns into Counts.
type block struct {
	start  int
	steps  int64
	hits   int64
	counts Counts
	run    func() *block
}

// trap is the panic value a trapping instruction leaves its block with:
// the interpreter's error, and the charges of the block's instructions
// the interpreter would not have reached.
type trap struct {
	err  error
	undo *Counts
}

// newFrame lowers cm onto a new frame.
func newFrame(cm *compiledMethod) *frame {
	n := cm.nLocals
	fr := &frame{
		cm:     cm,
		ints:   make([]int64, n),
		floats: make([]float64, n),
		arrs:   make([][]cir.Value, n),
		tups:   make([][]Val, n),
		blocks: make([]block, len(cm.blocks)),
	}
	for b := range cm.blocks {
		fr.lower(&fr.blocks[b], &cm.blocks[b])
	}
	return fr
}

// invokeCompiled runs one invocation on an idle frame of cm. Blocks
// count their entries and the Counts are tallied into vm.Counts at
// return, so the observable tallies match the interpreter's incremental
// ones exactly — including the partial tallies of error returns.
func (vm *VM) invokeCompiled(cm *compiledMethod, args []Val) (Val, error) {
	if len(args) != len(cm.m.Params) {
		return Val{}, fmt.Errorf("jvmsim: %s expects %d args, got %d", cm.m.Name, len(cm.m.Params), len(args))
	}
	fr := cm.take()
	if !fr.bind(args) {
		cm.put(fr)
		return vm.interpret(cm.m, args)
	}
	fr.free = &vm.free
	fr.budget = vm.budget()
	at, undo, err := fr.run()
	fr.tally(&vm.Counts)
	if undo != nil {
		vm.Counts.sub(undo)
	}
	ret := fr.ret
	if at >= 0 {
		ret, err = vm.run(cm.m, fr.locals(args), at, fr.steps)
	}
	fr.ret = Val{}
	clear(fr.arrs)
	clear(fr.tups)
	if err != nil {
		ret = Val{}
	}
	fr.recycle(&ret)
	fr.free = nil
	cm.put(fr)
	return ret, err
}

// run executes blocks from the entry until the method returns (-1) or a
// block must run on the interpreter (its leader's pc, with fr.steps
// spent): one left unlowered, or one whose steps do not fit the
// remaining budget. Each block is charged on entry; a trap returns the
// charges of its block past the trapping instruction, to take back.
func (fr *frame) run() (at int, undo *Counts, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, ok := r.(*trap)
			if !ok {
				panic(r)
			}
			at, undo, err = -1, t.undo, t.err
		}
	}()
	steps, budget := int64(0), fr.budget
	for blk := &fr.blocks[0]; blk != nil; {
		if blk.run == nil || blk.steps > budget-steps {
			fr.steps = steps
			return blk.start, nil, nil
		}
		steps += blk.steps
		blk.hits++
		blk = blk.run()
	}
	return -1, nil, nil
}

// tally adds the Counts of the invocation's block entries to c and
// resets them.
func (fr *frame) tally(c *Counts) {
	for i := range fr.blocks {
		b := &fr.blocks[i]
		if n := b.hits; n > 0 {
			c.ALU += n * b.counts.ALU
			c.FpALU += n * b.counts.FpALU
			c.ArrayOps += n * b.counts.ArrayOps
			c.ByteArrayOps += n * b.counts.ByteArrayOps
			c.FieldOps += n * b.counts.FieldOps
			c.Allocs += n * b.counts.Allocs
			c.Branches += n * b.counts.Branches
			c.Intrins += n * b.counts.Intrins
			c.LoadStore += n * b.counts.LoadStore
			b.hits = 0
		}
	}
}

// bind loads the arguments into the typed parameter slots. It reports
// false, binding nothing, when an argument does not have its parameter's
// declared shape; the invocation then runs on the interpreter.
func (fr *frame) bind(args []Val) bool {
	slots := fr.cm.slots
	n := min(len(args), len(slots))
	for i := range n {
		if slots[i].ok && !conforms(&args[i], slots[i].t) {
			return false
		}
	}
	for i := range n {
		switch t := slots[i].t; {
		case !slots[i].ok:
		case t.IsTuple():
			fr.tups[i] = args[i].Tup
		case t.Array:
			fr.arrs[i] = args[i].Arr
		case t.Kind.IsFloat():
			fr.floats[i] = args[i].S.F
		default:
			fr.ints[i] = args[i].S.I
		}
	}
	return true
}

// locals rebuilds the interpreter's locals from the typed slots, for a
// hand-over at a block leader. A local the lowering never types is never
// written by compiled code, so it still holds its argument or zero Val.
func (fr *frame) locals(args []Val) []Val {
	locals := make([]Val, len(fr.cm.slots))
	copy(locals, args)
	for s, f := range fr.cm.slots {
		switch k := f.t.Kind; {
		case !f.ok:
		case f.t.IsTuple():
			locals[s] = Val{Tup: fr.tups[s], IsTup: true}
		case f.t.Array:
			locals[s] = Array(fr.arrs[s])
		case k.IsFloat():
			locals[s] = Scalar(cir.Value{K: k, F: fr.floats[s]})
		default:
			locals[s] = Scalar(cir.Value{K: k, I: fr.ints[s]})
		}
	}
	return locals
}

// newArray is OpNewArray: a zeroed array of n elements of kind, reusing
// a free array of that length when there is one. Reuse is invisible:
// every element is reset to exactly what a fresh array holds.
func (fr *frame) newArray(kind cir.Kind, n int64) []cir.Value {
	var arr []cir.Value
	free := fr.free
	for i, a := range *free {
		if int64(len(a)) == n {
			last := len(*free) - 1
			arr, (*free)[i], (*free)[last] = a, (*free)[last], nil
			*free = (*free)[:last]
			break
		}
	}
	if arr == nil {
		arr = make([]cir.Value, n)
	}
	for j := range arr {
		arr[j] = cir.Value{K: kind}
	}
	if len(fr.fresh) < maxFresh {
		fr.fresh = append(fr.fresh, arr)
	}
	return arr
}

// recycle ends an invocation: the arrays it allocated that ret cannot
// reach join the bounded free list. Nothing else can hold such an array
// — arrays hold only scalars, tuples are immutable, and statics are
// never assigned — so after an error every one of them is free.
func (fr *frame) recycle(ret *Val) {
	for i, a := range fr.fresh {
		if len(a) > 0 && len(*fr.free) < maxFree && !reaches(ret, a) {
			*fr.free = append(*fr.free, a)
		}
		fr.fresh[i] = nil
	}
	fr.fresh = fr.fresh[:0]
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

// expr is one lowered operand: its static shape and the closure that
// computes it. Exactly one closure is set: i for an integer or Bool
// scalar (its I), f for a floating one (its F), b for the Bool a
// comparison or logical operator yields, a for an array and tu for a
// tuple. lit tells a constant, whose closures read no state.
type expr struct {
	t   bytecode.TypeDesc
	i   func() int64
	f   func() float64
	b   func() bool
	a   func() []cir.Value
	tu  func() []Val
	lit bool
}

// int is the operand's AsInt.
func (e expr) int() func() int64 {
	switch f, b := e.f, e.b; {
	case e.i != nil:
		return e.i
	case f != nil:
		return func() int64 { return int64(f()) }
	default:
		return func() int64 { return b2i(b()) }
	}
}

// float is the operand's AsFloat.
func (e expr) float() func() float64 {
	switch i, b := e.i, e.b; {
	case e.f != nil:
		return e.f
	case i != nil:
		return func() float64 { return float64(i()) }
	default:
		return func() float64 { return float64(b2i(b())) }
	}
}

// bool is the operand's IsTrue.
func (e expr) bool() func() bool {
	switch i, f := e.i, e.f; {
	case e.b != nil:
		return e.b
	case i != nil:
		return func() bool { return i() != 0 }
	default:
		return func() bool { return f() != 0 }
	}
}

// scalar builds the operand's Value.
func (e expr) scalar() func() cir.Value {
	switch k, i, f, b := e.t.Kind, e.i, e.f, e.b; {
	case i != nil:
		return func() cir.Value { return cir.Value{K: k, I: i()} }
	case f != nil:
		return func() cir.Value { return cir.Value{K: k, F: f()} }
	default:
		return func() cir.Value { return cir.BoolVal(b()) }
	}
}

// val builds the operand's Val.
func (e expr) val() func() Val {
	switch a, tu := e.a, e.tu; {
	case a != nil:
		return func() Val { return Array(a()) }
	case tu != nil:
		return func() Val { return Val{Tup: tu(), IsTup: true} }
	}
	s := e.scalar()
	return func() Val { return Val{S: s()} }
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// lowerer builds one block's closures on a stack of operands.
type lowerer struct {
	fr    *frame
	name  string
	stack []expr
	// total is the block's charge and done the charge of its
	// instructions before the one being lowered.
	total, done Counts
}

func (l *lowerer) push(e expr) { l.stack = append(l.stack, e) }

func (l *lowerer) pop() expr {
	e := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	return e
}

// trapAt is the trap of instruction in at pc with error err; charged
// tells whether the interpreter counts in before its check fails.
func (l *lowerer) trapAt(in bytecode.Instr, charged bool, err error) *trap {
	undo := l.total
	undo.sub(&l.done)
	if charged {
		var c Counts
		c.charge(&in, false)
		undo.sub(&c)
	}
	return &trap{err: err, undo: &undo}
}

// outOfBounds traps an array access at pc with index i into an array of
// length n; t holds the access's charges to take back.
func outOfBounds(t *trap, name string, pc int, i int64, n int) {
	panic(&trap{err: fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", name, pc, i, n), undo: t.undo})
}

// lower builds the closures of one block. The analysis proved every
// operand typed, so each case finds the shapes it expects.
func (fr *frame) lower(blk *block, info *blockInfo) {
	*blk = block{start: info.start, steps: info.steps, counts: info.counts}
	if !info.lowered {
		return
	}
	cm := fr.cm
	l := &lowerer{fr: fr, name: cm.m.Name, total: info.counts}
	var stmts []func()
	// The terminator: a branch on cond to to (else fall), a return of
	// ret, or a jump to to.
	var cond func() bool
	var ret func() Val
	var to, fall *block
	returns := false
	if info.end < len(cm.m.Code) {
		to = &fr.blocks[cm.blockAt[info.end]]
	}
	for pc := info.start; pc < info.end; pc++ {
		in := cm.m.Code[pc]
		negFloat := false
		switch in.Op {
		case bytecode.OpConst:
			l.push(literal(in.Val))
		case bytecode.OpLoad:
			l.push(fr.load(in.A))
		case bytecode.OpStore:
			stmts = append(stmts, fr.store(in.A, l.pop()))
		case bytecode.OpALoad:
			l.push(l.aload(in, pc))
		case bytecode.OpAStore:
			stmts = append(stmts, l.astore(in, pc))
		case bytecode.OpArrayLen:
			a := l.pop().a
			l.push(expr{t: bytecode.Prim(cir.Int), i: func() int64 { return int64(len(a())) }})
		case bytecode.OpNewArray:
			n, kind := l.pop().int(), in.Kind
			t := l.trapAt(in, true, nil)
			name := l.name
			l.push(expr{t: bytecode.ArrayOf(kind), a: func() []cir.Value {
				k := n()
				if k < 0 {
					panic(&trap{err: fmt.Errorf("jvmsim: %s@%d: NegativeArraySize: %d", name, pc, k), undo: t.undo})
				}
				return fr.newArray(kind, k)
			}})
		case bytecode.OpGetField:
			l.push(getField(l.pop(), in.A))
		case bytecode.OpNewTuple:
			fields := make([]func() Val, in.A)
			types := make([]bytecode.TypeDesc, in.A)
			for j := in.A - 1; j >= 0; j-- {
				e := l.pop()
				fields[j], types[j] = e.val(), e.t
			}
			l.push(expr{t: bytecode.TupleOf(types...), tu: func() []Val {
				fs := make([]Val, len(fields))
				for j, f := range fields {
					fs[j] = f()
				}
				return fs
			}})
		case bytecode.OpGetStatic:
			sf := cm.c.Static(in.Sym)
			if sf == nil {
				t := l.trapAt(in, true, fmt.Errorf("jvmsim: %s@%d: unknown static %q", l.name, pc, in.Sym))
				l.push(expr{t: bytecode.ArrayOf(in.Kind), a: func() []cir.Value { panic(t) }})
				break
			}
			data := sf.Data
			l.push(expr{t: staticShape(sf, in.Kind).t, a: func() []cir.Value { return data }})
		case bytecode.OpBin:
			r := l.pop()
			x := l.pop()
			l.push(l.binary(in, pc, x, r))
		case bytecode.OpUn:
			x := l.pop()
			negFloat = x.t.Kind.IsFloat()
			l.push(fold(unary(in.Un, x), x.lit))
		case bytecode.OpCast:
			x := l.pop()
			l.push(fold(cast(in.Kind, x), x.lit))
		case bytecode.OpIntrin:
			l.push(l.intrinsic(in, pc))
		case bytecode.OpGoto:
			to = &fr.blocks[cm.blockAt[in.Target]]
		case bytecode.OpBrFalse, bytecode.OpBrTrue:
			cond = l.pop().bool()
			to, fall = &fr.blocks[cm.blockAt[in.Target]], &fr.blocks[cm.blockAt[pc+1]]
			if in.Op == bytecode.OpBrFalse {
				to, fall = fall, to
			}
		case bytecode.OpReturn:
			returns = true
			if !cm.retVoid {
				ret = l.pop().val()
			}
		}
		l.done.charge(&in, negFloat)
	}
	if returns {
		blk.run = fr.returns(stmts, ret)
	} else {
		blk.run = branch(stmts, cond, to, fall)
	}
}

// returns builds the run of a block that runs stmts and returns ret's
// value (nothing, when ret is nil; the frame's ret is zero between
// invocations).
func (fr *frame) returns(stmts []func(), ret func() Val) func() *block {
	return func() *block {
		for _, s := range stmts {
			s()
		}
		if ret != nil {
			fr.ret = ret()
		}
		return nil
	}
}

// branch builds the run of a block that runs stmts and branches on cond
// to to (else fall) or, with cond nil, continues at to.
func branch(stmts []func(), cond func() bool, to, fall *block) func() *block {
	return func() *block {
		for _, s := range stmts {
			s()
		}
		if cond == nil || cond() {
			return to
		}
		return fall
	}
}

// literal is a constant operand.
func literal(v cir.Value) expr {
	e := expr{t: bytecode.Prim(v.K), lit: true}
	if v.K.IsFloat() {
		e.f = func() float64 { return v.F }
	} else {
		e.i = func() int64 { return v.I }
	}
	return e
}

// fold replaces an operator that cannot trap, over constants (consts),
// by the constant it computes.
func fold(e expr, consts bool) expr {
	if !consts {
		return e
	}
	return literal(e.scalar()())
}

// load reads local s.
func (fr *frame) load(s int) expr {
	e := expr{t: fr.cm.slots[s].t}
	switch {
	case e.t.IsTuple():
		p := &fr.tups[s]
		e.tu = func() []Val { return *p }
	case e.t.Array:
		p := &fr.arrs[s]
		e.a = func() []cir.Value { return *p }
	case e.t.Kind.IsFloat():
		p := &fr.floats[s]
		e.f = func() float64 { return *p }
	default:
		p := &fr.ints[s]
		e.i = func() int64 { return *p }
	}
	return e
}

// store writes e to local s.
func (fr *frame) store(s int, e expr) func() {
	switch t := fr.cm.slots[s].t; {
	case t.IsTuple():
		p, v := &fr.tups[s], e.tu
		return func() { *p = v() }
	case t.Array:
		p, v := &fr.arrs[s], e.a
		return func() { *p = v() }
	case t.Kind.IsFloat():
		p, v := &fr.floats[s], e.f
		return func() { *p = v() }
	default:
		p, v := &fr.ints[s], e.int()
		return func() { *p = v() }
	}
}

// aload reads an array element, of the array's own element kind.
func (l *lowerer) aload(in bytecode.Instr, pc int) expr {
	idx := l.pop().int()
	arr := l.pop()
	get := arr.a
	t, name := l.trapAt(in, true, nil), l.name
	e := expr{t: bytecode.Prim(arr.t.Kind)}
	if arr.t.Kind.IsFloat() {
		e.f = func() float64 {
			a, i := get(), idx()
			if uint64(i) >= uint64(len(a)) {
				outOfBounds(t, name, pc, i, len(a))
			}
			return a[i].F
		}
	} else {
		e.i = func() int64 {
			a, i := get(), idx()
			if uint64(i) >= uint64(len(a)) {
				outOfBounds(t, name, pc, i, len(a))
			}
			return a[i].I
		}
	}
	return e
}

// astore writes an array element, converted to the element's kind.
func (l *lowerer) astore(in bytecode.Instr, pc int) func() {
	val := l.pop()
	idx := l.pop().int()
	arr := l.pop()
	get, k := arr.a, arr.t.Kind
	t, name := l.trapAt(in, true, nil), l.name
	if k.IsFloat() {
		v := val.float()
		return func() {
			a, i, x := get(), idx(), v()
			if uint64(i) >= uint64(len(a)) {
				outOfBounds(t, name, pc, i, len(a))
			}
			a[i] = cir.FloatVal(k, x)
		}
	}
	v := val.int()
	return func() {
		a, i, x := get(), idx(), v()
		if uint64(i) >= uint64(len(a)) {
			outOfBounds(t, name, pc, i, len(a))
		}
		a[i] = cir.IntVal(k, x)
	}
}

// getField reads field fi of a tuple.
func getField(tup expr, fi int) expr {
	get := tup.tu
	e := expr{t: tup.t.Tuple[fi]}
	switch {
	case e.t.Array:
		e.a = func() []cir.Value { return get()[fi].Arr }
	case e.t.Kind.IsFloat():
		e.f = func() float64 { return get()[fi].S.F }
	default:
		e.i = func() int64 { return get()[fi].S.I }
	}
	return e
}

// binary lowers a binary operator through the typed forms of its row in
// cir's operator table. Both operands run before the operator, as the
// interpreter pops them only after both were pushed. An operator that
// cannot trap folds over constants.
func (l *lowerer) binary(in bytecode.Instr, pc int, x, y expr) expr {
	consts := x.lit && y.lit
	boolean := expr{t: bytecode.Prim(cir.Bool)}
	switch in.Bin {
	case cir.LAnd, cir.LOr:
		p, q := x.bool(), y.bool()
		if in.Bin == cir.LAnd {
			boolean.b = func() bool { a, b := p(), q(); return a && b }
		} else {
			boolean.b = func() bool { a, b := p(), q(); return a || b }
		}
		return fold(boolean, consts)
	}
	k := in.Kind
	e := expr{t: bytecode.Prim(k)}
	intArith, floatArith, intCmp, floatCmp := cir.BinaryFunc(in.Bin, k)
	switch {
	case intCmp != nil && (x.t.Kind.IsFloat() || y.t.Kind.IsFloat()):
		boolean.b = floatCmp(x.float(), y.float())
		return fold(boolean, consts)
	case intCmp != nil:
		boolean.b = intCmp(x.int(), y.int())
		return fold(boolean, consts)
	case k.IsFloat() && floatArith != nil:
		e.f = floatArith(x.float(), y.float())
		return fold(e, consts)
	case !k.IsFloat() && intArith != nil:
		d := y.int()
		if (in.Bin == cir.Div || in.Bin == cir.Rem) && (!y.lit || d() == 0) {
			// Test the divisor first, to leave through this
			// instruction's trap.
			_, err := cir.EvalBinary(in.Bin, k, cir.Value{K: k, I: 1}, cir.Value{K: k})
			t, divisor := l.trapAt(in, false, fmt.Errorf("jvmsim: %s@%d: %w", l.name, pc, err)), d
			d, consts = func() int64 {
				v := divisor()
				if v == 0 {
					panic(t)
				}
				return v
			}, false
		}
		e.i = intArith(x.int(), d)
		return fold(e, consts)
	}
	// The row has no arithmetic at this kind: it always fails.
	_, err := cir.EvalBinary(in.Bin, k, cir.Value{K: k}, cir.Value{K: k})
	t, p, q := l.trapAt(in, false, fmt.Errorf("jvmsim: %s@%d: %w", l.name, pc, err)), x.scalar(), y.scalar()
	fail := func() {
		p()
		q()
		panic(t)
	}
	if k.IsFloat() {
		e.f = func() float64 { fail(); return 0 }
	} else {
		e.i = func() int64 { fail(); return 0 }
	}
	return e
}

// unary lowers Neg, Not and BitNot, whose result keeps the operand's
// kind (Not's is Bool).
func unary(op cir.UnOp, x expr) expr {
	k := x.t.Kind
	e := expr{t: bytecode.Prim(k)}
	switch {
	case op == cir.Not:
		b := x.bool()
		e.t, e.b = bytecode.Prim(cir.Bool), func() bool { return !b() }
	case op == cir.Neg && k.IsFloat():
		f := x.float()
		e.f = func() float64 { return cir.FloatVal(k, -f()).F }
	case op == cir.Neg:
		i := x.int()
		e.i = func() int64 { return cir.IntVal(k, -i()).I }
	default:
		i := x.int()
		e.i = func() int64 { return cir.IntVal(k, ^i()).I }
	}
	return e
}

// cast lowers Value.Convert to kind k. A conversion that cannot change
// its operand's value, an integer widening or a floating one to Double,
// reads the operand as it is.
func cast(k cir.Kind, x expr) expr {
	e := expr{t: bytecode.Prim(k)}
	switch from := x.t.Kind; {
	case k.IsFloat() && from.IsFloat() && (from == k || k == cir.Double):
		e.f = x.f
	case k.IsFloat():
		f := x.float()
		e.f = func() float64 { return cir.FloatVal(k, f()).F }
	case x.i != nil && !from.IsFloat() && from <= k:
		e.i = x.i
	default:
		i := x.int()
		e.i = func() int64 { return cir.IntVal(k, i()).I }
	}
	return e
}

// intrinsic lowers a java.lang.Math call through cir.EvalIntrinsic,
// whose result has the call's kind. Each call site owns its argument
// buffer, so nested calls do not share one.
func (l *lowerer) intrinsic(in bytecode.Instr, pc int) expr {
	args := make([]func() cir.Value, in.A)
	for j := in.A - 1; j >= 0; j-- {
		args[j] = l.pop().scalar()
	}
	buf := make([]cir.Value, in.A)
	sym, k, name := in.Sym, in.Kind, l.name
	t := l.trapAt(in, true, nil)
	call := func() cir.Value {
		for j, a := range args {
			buf[j] = a()
		}
		v, err := cir.EvalIntrinsic(sym, k, buf)
		if err != nil {
			panic(&trap{err: fmt.Errorf("jvmsim: %s@%d: %w", name, pc, err), undo: t.undo})
		}
		return v
	}
	e := expr{t: bytecode.Prim(k)}
	if k.IsFloat() {
		e.f = func() float64 { return call().F }
	} else {
		e.i = func() int64 { return call().I }
	}
	return e
}
