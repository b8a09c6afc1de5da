package cir

import (
	"fmt"
	"math"
)

// Evaluator executes a Kernel on concrete buffers. It exists so that every
// stage of the S2FA pipeline can be validated by differential testing: the
// C kernel produced by the bytecode-to-C compiler — and every Merlin
// transformation of it — must compute exactly what the JVM computes. The
// Blaze runtime runs it as the deployed accelerator's functional
// emulation.
//
// NewEvaluator compiles the kernel once: every scalar and array name is
// resolved to a dense slot of the evaluator's frame, and the body is
// lowered to a tree of closures over that frame, so Execute looks up no
// name. Expressions lower to typed closures (func() int64, func() float64,
// func() bool) built from the binary operator table. A Value is built
// only where a comparison or a truth test reads a runtime kind that no
// static fact fixes, as for an element of a host buffer. An Evaluator is
// not safe for concurrent use, and the kernel must not change after
// NewEvaluator.
type Evaluator struct {
	kernel *Kernel
	// Steps counts executed statements (plus one per completed While
	// iteration and one per iteration of a Loop with an empty body), as
	// a cheap sanity metric and an infinite-loop guard for property
	// tests.
	Steps    int64
	MaxSteps int64

	// The frame: one slot per scalar and per array name the kernel
	// mentions, each with a defined bit, since a read of a name not yet
	// bound is an error.
	scalars    []Value
	scalarDef  []bool
	arrays     [][]Value
	arrayDef   []bool
	nSlot      int
	paramSlots []int // per Params entry: its scalar or array slot
	globSlots  []int // per Globals entry: its array slot
	body       stmtFn
}

type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// stmtFn runs one compiled statement or block; valueFn evaluates one
// compiled expression to its Value. Both close over their evaluator's
// frame and leave through fail on a run-time error.
type (
	stmtFn  func() ctrl
	valueFn func() Value
)

// evalError carries a run-time error out of the compiled closures;
// Execute recovers it and returns the error.
type evalError struct{ err error }

func fail(err error) { panic(evalError{err}) }

// NewEvaluator compiles kernel k into an evaluator. MaxSteps defaults to
// 100M statements. Execute may be called any number of times.
func NewEvaluator(k *Kernel) *Evaluator {
	ev := &Evaluator{kernel: k, MaxSteps: 100_000_000}
	c := &compiler{ev: ev, scalarSlot: map[string]int{}, arraySlot: map[string]int{}}
	ev.nSlot = c.scalar("N")
	c.scalars[ev.nSlot].bind(Int)
	for _, g := range k.Globals {
		s := c.array(g.Name)
		c.arrays[s].bindHost()
		ev.globSlots = append(ev.globSlots, s)
	}
	for _, p := range k.Params {
		if p.IsArray {
			s := c.array(p.Name)
			c.arrays[s].bindHost()
			ev.paramSlots = append(ev.paramSlots, s)
		} else {
			s := c.scalar(p.Name)
			c.scalars[s].bind(p.Elem)
			ev.paramSlots = append(ev.paramSlots, s)
		}
	}
	c.scan(k.Body)
	ev.body = c.block(k.Body)
	ev.scalars = make([]Value, len(c.scalars))
	ev.scalarDef = make([]bool, len(c.scalars))
	ev.arrays = make([][]Value, len(c.arrays))
	ev.arrayDef = make([]bool, len(c.arrays))
	return ev
}

// Execute runs the kernel over n tasks. bufs maps each array parameter
// name to its backing storage (length >= n * Param.Length) and each scalar
// parameter to a single-element slice. Output buffers are written in
// place.
func (ev *Evaluator) Execute(n int, bufs map[string][]Value) (err error) {
	clear(ev.scalarDef)
	clear(ev.arrayDef)
	ev.setScalar(ev.nSlot, IntVal(Int, int64(n)))
	for i, s := range ev.globSlots {
		ev.setArray(s, ev.kernel.Globals[i].Data)
	}
	for i, p := range ev.kernel.Params {
		buf, ok := bufs[p.Name]
		if !ok {
			return fmt.Errorf("cir: missing buffer for parameter %q", p.Name)
		}
		if p.IsArray {
			if want := n * p.Length; len(buf) < want {
				return fmt.Errorf("cir: buffer %q has %d elements, kernel needs %d", p.Name, len(buf), want)
			}
			ev.setArray(ev.paramSlots[i], buf)
		} else {
			if len(buf) != 1 {
				return fmt.Errorf("cir: scalar parameter %q needs a 1-element buffer", p.Name)
			}
			ev.setScalar(ev.paramSlots[i], buf[0].Convert(p.Elem))
		}
	}
	ev.Steps = 0
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(evalError)
			if !ok {
				panic(r)
			}
			err = e.err
		}
	}()
	ev.body()
	return nil
}

func (ev *Evaluator) setScalar(s int, v Value) {
	ev.scalars[s] = v
	ev.scalarDef[s] = true
}

func (ev *Evaluator) setArray(s int, arr []Value) {
	ev.arrays[s] = arr
	ev.arrayDef[s] = true
}

// read returns the address of scalar slot s for a read that may precede
// every store into it: an unbound name fails.
func (ev *Evaluator) read(s int, name string) *Value {
	if !ev.scalarDef[s] {
		fail(fmt.Errorf("cir: read of undefined variable %q", name))
	}
	return &ev.scalars[s]
}

// bound fails an access to array slot s while the slot is unbound, when
// check says that no earlier declaration definitely bound it.
func (ev *Evaluator) bound(s int, check bool, access, name string) {
	if check && !ev.arrayDef[s] {
		panic(evalError{unboundError{access, name}})
	}
}

// elem returns the address of element i of array slot s.
//
// bound and elem stay small enough to inline: their failures panic with
// an error value whose message is formatted only when reported.
func (ev *Evaluator) elem(s int, i int64, name string) *Value {
	arr := ev.arrays[s]
	if uint64(i) >= uint64(len(arr)) {
		panic(evalError{indexError{i, name, len(arr)}})
	}
	return &arr[i]
}

type indexError struct {
	i    int64
	name string
	n    int
}

func (e indexError) Error() string {
	return fmt.Sprintf("cir: index %d out of bounds for array %q (len %d)", e.i, e.name, e.n)
}

type unboundError struct{ access, name string }

func (e unboundError) Error() string {
	return fmt.Sprintf("cir: %s unknown array %q", e.access, e.name)
}

func (ev *Evaluator) overBudget() {
	fail(fmt.Errorf("cir: step budget exceeded (%d)", ev.MaxSteps))
}

// compiler lowers a kernel body to closures over ev's frame, assigning
// slots to names as it meets them. Scalars and arrays are separate
// namespaces, as they are in C-IR.
type compiler struct {
	ev         *Evaluator
	scalarSlot map[string]int
	arraySlot  map[string]int
	scalars    []slotInfo
	arrays     []slotInfo
	// undo lists the slots defined since each open block began, an
	// array slot as ^slot, so that leaving the block forgets them.
	undo []int
}

// slotInfo is what lowering knows of one frame slot: the kind that every
// store into it (a scalar's value, an array's elements) converts to, if
// they agree, and whether the slot is definitely bound where lowering
// stands.
type slotInfo struct {
	kind    Kind
	stored  bool // some store converts to kind
	mixed   bool // stores disagree, or the host binds the array
	defined bool
}

func (s *slotInfo) store(k Kind) {
	if !s.stored {
		s.kind, s.stored = k, true
	} else if s.kind != k {
		s.mixed = true
	}
}

// bind records a scalar that Execute binds before the body runs.
func (s *slotInfo) bind(k Kind) { s.store(k); s.defined = true }

// bindHost records an array that Execute binds to host or global data,
// whose elements may be of any kind.
func (s *slotInfo) bindHost() { s.mixed, s.defined = true, true }

func (c *compiler) scalar(name string) int {
	s, ok := c.scalarSlot[name]
	if !ok {
		s = len(c.scalars)
		c.scalarSlot[name] = s
		c.scalars = append(c.scalars, slotInfo{})
	}
	return s
}

func (c *compiler) array(name string) int {
	s, ok := c.arraySlot[name]
	if !ok {
		s = len(c.arrays)
		c.arraySlot[name] = s
		c.arrays = append(c.arrays, slotInfo{})
	}
	return s
}

// scalarInfo and arrayInfo return what lowering knows of a name's slot.
// The pointer is valid until the next new name gets a slot.
func (c *compiler) scalarInfo(name string) *slotInfo {
	s := c.scalar(name)
	return &c.scalars[s]
}

func (c *compiler) arrayInfo(name string) *slotInfo {
	s := c.array(name)
	return &c.arrays[s]
}

func (c *compiler) define(s int) {
	if !c.scalars[s].defined {
		c.scalars[s].defined = true
		c.undo = append(c.undo, s)
	}
}

func (c *compiler) defineArray(s int) {
	if !c.arrays[s].defined {
		c.arrays[s].defined = true
		c.undo = append(c.undo, ^s)
	}
}

// forget undefines the slots defined since undo had length mark.
func (c *compiler) forget(mark int) {
	for _, s := range c.undo[mark:] {
		if s >= 0 {
			c.scalars[s].defined = false
		} else {
			c.arrays[^s].defined = false
		}
	}
	c.undo = c.undo[:mark]
}

// scan records the kind of every store in b, before lowering reads any.
func (c *compiler) scan(b Block) {
	for _, s := range b {
		switch s := s.(type) {
		case *Decl:
			c.scalarInfo(s.Name).store(s.K)
		case *ArrDecl:
			c.arrayInfo(s.Name).store(s.Elem)
		case *Assign:
			switch lhs := s.LHS.(type) {
			case *VarRef:
				c.scalarInfo(lhs.Name).store(lhs.K)
			case *Index:
				c.arrayInfo(lhs.Arr).store(lhs.K)
			}
		case *If:
			c.scan(s.Then)
			c.scan(s.Else)
		case *Loop:
			c.scalarInfo(s.Var).store(Int)
			c.scan(s.Body)
		case *While:
			c.scan(s.Body)
		}
	}
}

// block compiles a statement sequence. Each statement costs one step,
// charged before it runs. A name the block defines stays definitely
// bound only to its end.
func (c *compiler) block(b Block) stmtFn {
	ev, mark := c.ev, len(c.undo)
	fns := make([]stmtFn, len(b))
	for i, s := range b {
		fns[i] = c.stmt(s)
	}
	c.forget(mark)
	return func() ctrl {
		for _, f := range fns {
			ev.Steps++
			if ev.Steps > ev.MaxSteps {
				ev.overBudget()
			}
			if cc := f(); cc != ctrlNone {
				return cc
			}
		}
		return ctrlNone
	}
}

func (c *compiler) stmt(s Stmt) stmtFn {
	ev := c.ev
	switch s := s.(type) {
	case *Decl:
		slot, k := c.scalar(s.Name), s.K
		if s.Init == nil {
			c.define(slot)
			return func() ctrl {
				ev.setScalar(slot, Value{K: k})
				return ctrlNone
			}
		}
		return c.set(slot, k, s.Init)
	case *ArrDecl:
		// Each ArrDecl owns one buffer, allocated on first execution and
		// re-zeroed on every later one. Reuse is safe because an array is
		// reachable only through its name: once the slot is rebound, the
		// buffer's previous contents can never be read again.
		slot, elem, n := c.array(s.Name), s.Elem, s.Len
		c.defineArray(slot)
		var buf []Value
		return func() ctrl {
			if buf == nil {
				buf = make([]Value, n)
			}
			for i := range buf {
				buf[i] = Value{K: elem}
			}
			ev.setArray(slot, buf)
			return ctrlNone
		}
	case *Assign:
		return c.assign(s)
	case *If:
		cond, then := c.boolExpr(s.Cond), c.block(s.Then)
		if len(s.Else) == 0 {
			return func() ctrl {
				if cond() {
					return then()
				}
				return ctrlNone
			}
		}
		els := c.block(s.Else)
		return func() ctrl {
			if cond() {
				return then()
			}
			return els()
		}
	case *Loop:
		lo, hi, slot, step := c.intExpr(s.Lo), c.intExpr(s.Hi), c.scalar(s.Var), s.Step
		mark := len(c.undo)
		c.define(slot)
		body := c.block(s.Body)
		c.forget(mark)
		if len(s.Body) == 0 {
			// An empty body charges no statement, so a loop whose index
			// never advances would escape the step budget: it costs one
			// step per iteration instead. A loop with a body keeps its
			// count.
			body = func() ctrl {
				ev.Steps++
				if ev.Steps > ev.MaxSteps {
					ev.overBudget()
				}
				return ctrlNone
			}
		}
		return func() ctrl {
			for i := lo(); i < hi(); i += step {
				ev.setScalar(slot, Value{K: Int, I: int64(int32(i))})
				switch body() {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn:
					return ctrlReturn
				}
			}
			return ctrlNone
		}
	case *While:
		cond, body := c.boolExpr(s.Cond), c.block(s.Body)
		return func() ctrl {
			for cond() {
				switch body() {
				case ctrlBreak:
					return ctrlNone
				case ctrlReturn:
					return ctrlReturn
				}
				ev.Steps++
				if ev.Steps > ev.MaxSteps {
					fail(fmt.Errorf("cir: step budget exceeded in while loop"))
				}
			}
			return ctrlNone
		}
	case *Break:
		return func() ctrl { return ctrlBreak }
	case *Continue:
		return func() ctrl { return ctrlContinue }
	case *Return:
		return func() ctrl { return ctrlReturn }
	}
	err := fmt.Errorf("cir: unknown statement %T", s)
	return func() ctrl {
		fail(err)
		return ctrlNone
	}
}

// set compiles a store of e, converted to kind k, into scalar slot s.
func (c *compiler) set(s int, k Kind, e Expr) stmtFn {
	ev := c.ev
	var fn stmtFn
	if k.IsFloat() {
		x := c.convFloat(e, k)
		fn = func() ctrl {
			ev.setScalar(s, Value{K: k, F: x()})
			return ctrlNone
		}
	} else {
		x := c.convInt(e, k)
		fn = func() ctrl {
			ev.setScalar(s, Value{K: k, I: x()})
			return ctrlNone
		}
	}
	c.define(s)
	return fn
}

// assign compiles a store. The RHS is evaluated first; an array target
// is resolved before its index is evaluated.
func (c *compiler) assign(s *Assign) stmtFn {
	ev := c.ev
	switch lhs := s.LHS.(type) {
	case *VarRef:
		return c.set(c.scalar(lhs.Name), lhs.K, s.RHS)
	case *Index:
		slot, k, name := c.array(lhs.Arr), lhs.K, lhs.Arr
		check := !c.arrays[slot].defined
		if k.IsFloat() {
			x, idx := c.convFloat(s.RHS, k), c.intExpr(lhs.Idx)
			return func() ctrl {
				v := x()
				ev.bound(slot, check, "store to", name)
				*ev.elem(slot, idx(), name) = Value{K: k, F: v}
				return ctrlNone
			}
		}
		x, idx := c.convInt(s.RHS, k), c.intExpr(lhs.Idx)
		return func() ctrl {
			v := x()
			ev.bound(slot, check, "store to", name)
			*ev.elem(slot, idx(), name) = Value{K: k, I: v}
			return ctrlNone
		}
	}
	rhs, err := c.valueExpr(s.RHS), fmt.Errorf("cir: invalid assignment target %T", s.LHS)
	return func() ctrl {
		rhs()
		fail(err)
		return ctrlNone
	}
}

// kindOf reports the runtime kind that e's value is proven to have, if
// one is: a scalar's or a local array's when all its stores agree, an
// operator's result kind, or a conditional's when both arms agree.
// Elements of host buffers have no proven kind. A node that always
// fails proves any kind.
func (c *compiler) kindOf(e Expr) (Kind, bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.K, true
	case *FloatLit:
		return e.K, true
	case *VarRef:
		s := c.scalarInfo(e.Name)
		return s.kind, !s.mixed
	case *Index:
		s := c.arrayInfo(e.Arr)
		return s.kind, !s.mixed
	case *Unary:
		if e.Op == Neg || e.Op == BitNot {
			return c.kindOf(e.X)
		}
		return Bool, true
	case *Binary:
		if e.Op.IsCompare() || e.Op.IsLogical() {
			return Bool, true
		}
		return e.K, true
	case *Cast:
		return e.To, true
	case *Cond:
		t, tok := c.kindOf(e.T)
		f, fok := c.kindOf(e.F)
		return t, tok && fok && t == f
	case *Call:
		return e.K, true
	}
	return Void, true
}

// scalarRef resolves a scalar read: its slot, and whether it must check
// the defined bit because no earlier store definitely bound it.
func (c *compiler) scalarRef(e *VarRef) (int, bool) {
	s := c.scalar(e.Name)
	return s, !c.scalars[s].defined
}

func (c *compiler) arrayRef(e *Index) (int, bool, intFn) {
	s := c.array(e.Arr)
	check := !c.arrays[s].defined
	return s, check, c.intExpr(e.Idx)
}

func literal(e Expr) Value {
	switch e := e.(type) {
	case *IntLit:
		return IntVal(e.K, e.Val)
	case *FloatLit:
		return FloatVal(e.K, e.Val)
	}
	return Value{}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// intExpr compiles e to its value's AsInt. A read that may precede
// every store checks the defined bit; a slot or local array of proven
// integer kind holds its value in I, any other is read through AsInt.
func (c *compiler) intExpr(e Expr) intFn {
	ev := c.ev
	switch e := e.(type) {
	case *IntLit, *FloatLit:
		v := literal(e).AsInt()
		return func() int64 { return v }
	case *VarRef:
		slot, check := c.scalarRef(e)
		switch k, ok := c.kindOf(e); {
		case check:
			name := e.Name
			return func() int64 { return ev.read(slot, name).AsInt() }
		case ok && !k.IsFloat():
			return func() int64 { return ev.scalars[slot].I }
		}
		return func() int64 { return ev.scalars[slot].AsInt() }
	case *Index:
		slot, check, idx := c.arrayRef(e)
		name := e.Arr
		if k, ok := c.kindOf(e); ok && !k.IsFloat() {
			return func() int64 {
				ev.bound(slot, check, "read of", name)
				return ev.elem(slot, idx(), name).I
			}
		}
		return func() int64 {
			ev.bound(slot, check, "read of", name)
			return ev.elem(slot, idx(), name).AsInt()
		}
	case *Cond:
		cond, t, f := c.boolExpr(e.C), c.intExpr(e.T), c.intExpr(e.F)
		return func() int64 {
			if cond() {
				return t()
			}
			return f()
		}
	}
	k, ok := c.kindOf(e)
	if !ok {
		v := c.valueExpr(e)
		return func() int64 { return v().AsInt() }
	}
	if k.IsFloat() {
		f := c.floatExpr(e)
		return func() int64 { return int64(f()) }
	}
	switch e := e.(type) {
	case *Unary:
		switch e.Op {
		case Neg:
			x := c.intExpr(e.X)
			return func() int64 { return truncInt(k, -x()) }
		case BitNot:
			x := c.intExpr(e.X)
			return func() int64 { return truncInt(k, ^x()) }
		case Not:
			x := c.boolExpr(e.X)
			return func() int64 { return b2i(!x()) }
		}
	case *Binary:
		if e.Op.IsCompare() || e.Op.IsLogical() {
			x := c.boolExpr(e)
			return func() int64 { return b2i(x()) }
		}
		if o := lookup(e.Op, e.K); o.int != nil {
			return o.int(c.intExpr(e.L), c.intExpr(e.R))
		}
	case *Cast:
		return c.convInt(e.X, e.To)
	case *Call:
		v := c.call(e)
		return func() int64 { return v().I }
	}
	v := c.failing(e)
	return func() int64 { return v().I }
}

// floatExpr compiles e to its value's AsFloat, reading slots and arrays
// as intExpr does.
func (c *compiler) floatExpr(e Expr) floatFn {
	ev := c.ev
	switch e := e.(type) {
	case *IntLit, *FloatLit:
		v := literal(e).AsFloat()
		return func() float64 { return v }
	case *VarRef:
		slot, check := c.scalarRef(e)
		switch k, ok := c.kindOf(e); {
		case check:
			name := e.Name
			return func() float64 { return ev.read(slot, name).AsFloat() }
		case ok && k.IsFloat():
			return func() float64 { return ev.scalars[slot].F }
		}
		return func() float64 { return ev.scalars[slot].AsFloat() }
	case *Index:
		slot, check, idx := c.arrayRef(e)
		name := e.Arr
		if k, ok := c.kindOf(e); ok && k.IsFloat() {
			return func() float64 {
				ev.bound(slot, check, "read of", name)
				return ev.elem(slot, idx(), name).F
			}
		}
		return func() float64 {
			ev.bound(slot, check, "read of", name)
			return ev.elem(slot, idx(), name).AsFloat()
		}
	case *Cond:
		cond, t, f := c.boolExpr(e.C), c.floatExpr(e.T), c.floatExpr(e.F)
		return func() float64 {
			if cond() {
				return t()
			}
			return f()
		}
	}
	k, ok := c.kindOf(e)
	if !ok {
		v := c.valueExpr(e)
		return func() float64 { return v().AsFloat() }
	}
	if !k.IsFloat() {
		x := c.intExpr(e)
		return func() float64 { return float64(x()) }
	}
	switch e := e.(type) {
	case *Unary:
		// A value of proven floating kind is already rounded to it, so
		// negation needs no rounding; ~ leaves a floating value zero.
		switch e.Op {
		case Neg:
			x := c.floatExpr(e.X)
			return func() float64 { return -x() }
		case BitNot:
			x := c.floatExpr(e.X)
			return func() float64 {
				x()
				return 0
			}
		}
	case *Binary:
		if o := lookup(e.Op, e.K); o.float != nil {
			return o.float(c.floatExpr(e.L), c.floatExpr(e.R))
		}
	case *Cast:
		return c.convFloat(e.X, e.To)
	case *Call:
		v := c.call(e)
		return func() float64 { return v().F }
	}
	v := c.failing(e)
	return func() float64 { return v().F }
}

// boolExpr compiles e to its value's IsTrue.
func (c *compiler) boolExpr(e Expr) boolFn {
	switch e := e.(type) {
	case *Cond:
		cond, t, f := c.boolExpr(e.C), c.boolExpr(e.T), c.boolExpr(e.F)
		return func() bool {
			if cond() {
				return t()
			}
			return f()
		}
	case *Unary:
		if e.Op == Not {
			x := c.boolExpr(e.X)
			return func() bool { return !x() }
		}
	case *Binary:
		switch {
		case e.Op == LAnd:
			l, r := c.boolExpr(e.L), c.boolExpr(e.R)
			return func() bool { return l() && r() }
		case e.Op == LOr:
			l, r := c.boolExpr(e.L), c.boolExpr(e.R)
			return func() bool { return l() || r() }
		case e.Op.IsCompare():
			return c.compare(e)
		}
	}
	k, ok := c.kindOf(e)
	if !ok {
		v := c.valueExpr(e)
		return func() bool { return v().IsTrue() }
	}
	if k.IsFloat() {
		f := c.floatExpr(e)
		return func() bool { return f() != 0 }
	}
	x := c.intExpr(e)
	return func() bool { return x() != 0 }
}

// compare compiles a comparison: typed when both operands' runtime kinds
// are proven, through the table's Value form otherwise.
func (c *compiler) compare(e *Binary) boolFn {
	o := lookup(e.Op, e.K)
	lk, lok := c.kindOf(e.L)
	rk, rok := c.kindOf(e.R)
	if lok && rok {
		if lk.IsFloat() || rk.IsFloat() {
			return o.floatCmp(c.floatExpr(e.L), c.floatExpr(e.R))
		}
		return o.intCmp(c.intExpr(e.L), c.intExpr(e.R))
	}
	l, r, f := c.valueExpr(e.L), c.valueExpr(e.R), o.value
	return func() bool {
		v, _ := f(l(), r())
		return v.I != 0
	}
}

// valueExpr compiles e to its Value, for the readers of a runtime kind
// that is not proven.
func (c *compiler) valueExpr(e Expr) valueFn {
	ev := c.ev
	switch e := e.(type) {
	case *VarRef:
		slot, check := c.scalarRef(e)
		if check {
			name := e.Name
			return func() Value { return *ev.read(slot, name) }
		}
		return func() Value { return ev.scalars[slot] }
	case *Index:
		slot, check, idx := c.arrayRef(e)
		name := e.Arr
		return func() Value {
			ev.bound(slot, check, "read of", name)
			return *ev.elem(slot, idx(), name)
		}
	case *Cond:
		cond, t, f := c.boolExpr(e.C), c.valueExpr(e.T), c.valueExpr(e.F)
		return func() Value {
			if cond() {
				return t()
			}
			return f()
		}
	}
	k, ok := c.kindOf(e)
	switch {
	case !ok:
		// Neg or BitNot of an operand of unproven kind.
		u := e.(*Unary)
		x := c.valueExpr(u.X)
		if u.Op == Neg {
			return func() Value {
				v := x()
				if v.K.IsFloat() {
					return FloatVal(v.K, -v.F)
				}
				return IntVal(v.K, -v.I)
			}
		}
		return func() Value {
			v := x()
			return IntVal(v.K, ^v.I)
		}
	case k.IsFloat():
		f := c.floatExpr(e)
		return func() Value { return Value{K: k, F: f()} }
	}
	x := c.intExpr(e)
	return func() Value { return Value{K: k, I: x()} }
}

// convInt compiles e converted to integer kind k, as Value.Convert does.
// A value already of kind k is already truncated to it.
func (c *compiler) convInt(e Expr, k Kind) intFn {
	x := c.intExpr(e)
	if ek, ok := c.kindOf(e); ok && ek == k {
		return x
	}
	switch k {
	case Bool:
		return func() int64 { return b2i(x() != 0) }
	case Char:
		return func() int64 { return int64(int8(x())) }
	case Short:
		return func() int64 { return int64(int16(x())) }
	case Int:
		return func() int64 { return int64(int32(x())) }
	}
	return x
}

// convFloat compiles e converted to floating kind k, as Value.Convert
// does. A value already of kind Float is already rounded to it.
func (c *compiler) convFloat(e Expr, k Kind) floatFn {
	f := c.floatExpr(e)
	if ek, ok := c.kindOf(e); k == Double || ok && ek == Float {
		return f
	}
	return func() float64 { return float64(float32(f())) }
}

// call compiles an intrinsic call. EvalIntrinsic fails only on an
// unknown name or a wrong argument count, whatever the arguments'
// values, so one trial call at compile time finds the error, which
// still comes after the arguments' own.
func (c *compiler) call(e *Call) valueFn {
	// One argument buffer per call site: a site never re-enters itself,
	// and an Evaluator runs on one goroutine.
	args := make([]valueFn, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.valueExpr(a)
	}
	vals, name, k := make([]Value, len(args)), e.Name, e.K
	_, err := EvalIntrinsic(name, k, vals)
	return func() Value {
		for i, a := range args {
			vals[i] = a()
		}
		if err != nil {
			fail(err)
		}
		v, _ := EvalIntrinsic(name, k, vals)
		return v
	}
}

// failing compiles a node that fails whenever it runs: an operator with
// no arithmetic at its kind, an unknown unary operator or an unknown
// node. Its operands run first, so that their own errors take
// precedence.
func (c *compiler) failing(e Expr) valueFn {
	err := fmt.Errorf("cir: unknown expression %T", e)
	switch e := e.(type) {
	case *Binary:
		l, r, f := c.valueExpr(e.L), c.valueExpr(e.R), lookup(e.Op, e.K).value
		return func() Value {
			v, err := f(l(), r())
			if err != nil {
				fail(err)
			}
			return v
		}
	case *Unary:
		x := c.valueExpr(e.X)
		return func() Value {
			x()
			fail(err)
			return Value{}
		}
	}
	return func() Value {
		fail(err)
		return Value{}
	}
}

// Intrinsics supported by Call nodes, matching the math methods the kdsl
// front-end accepts (java.lang.Math subset baked into S2FA's templates).
var Intrinsics = map[string]bool{
	"exp": true, "log": true, "sqrt": true, "fabs": true,
	"min": true, "max": true, "pow": true, "floor": true, "abs": true,
}

// EvalIntrinsic applies a math intrinsic to already-evaluated arguments.
// Shared by the IR evaluator and the JVM simulator so differential tests
// compare identical math semantics. exp, log, sqrt, fabs, floor and pow
// compute a double and convert it to k as a Cast does (see fromDouble).
func EvalIntrinsic(name string, k Kind, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("cir: intrinsic %s expects %d args, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "exp":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return fromDouble(k, math.Exp(args[0].AsFloat())), nil
	case "log":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return fromDouble(k, math.Log(args[0].AsFloat())), nil
	case "sqrt":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return fromDouble(k, math.Sqrt(args[0].AsFloat())), nil
	case "fabs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return fromDouble(k, math.Abs(args[0].AsFloat())), nil
	case "abs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if k.IsFloat() {
			return FloatVal(k, math.Abs(args[0].AsFloat())), nil
		}
		v := args[0].AsInt()
		if v < 0 {
			v = -v
		}
		return IntVal(k, v), nil
	case "floor":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return fromDouble(k, math.Floor(args[0].AsFloat())), nil
	case "pow":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return fromDouble(k, math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	case "min":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if k.IsFloat() {
			return FloatVal(k, math.Min(args[0].AsFloat(), args[1].AsFloat())), nil
		}
		return IntVal(k, min(args[0].AsInt(), args[1].AsInt())), nil
	case "max":
		if err := need(2); err != nil {
			return Value{}, err
		}
		if k.IsFloat() {
			return FloatVal(k, math.Max(args[0].AsFloat(), args[1].AsFloat())), nil
		}
		return IntVal(k, max(args[0].AsInt(), args[1].AsInt())), nil
	}
	return Value{}, fmt.Errorf("cir: unknown intrinsic %q", name)
}

// fromDouble converts a double result to kind k as Value.Convert does:
// rounded at Float, truncated toward zero and wrapped to k's width at an
// integer kind.
func fromDouble(k Kind, f float64) Value {
	return Value{K: Double, F: f}.Convert(k)
}
