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
// name. An Evaluator is not safe for concurrent use, and the kernel must
// not change after NewEvaluator.
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

// stmtFn runs one compiled statement or block; exprFn evaluates one
// compiled expression. Both close over their evaluator's frame.
type (
	stmtFn func() (ctrl, error)
	exprFn func() (Value, error)
)

// NewEvaluator compiles kernel k into an evaluator. MaxSteps defaults to
// 100M statements. Execute may be called any number of times.
func NewEvaluator(k *Kernel) *Evaluator {
	ev := &Evaluator{kernel: k, MaxSteps: 100_000_000}
	c := &compiler{ev: ev, scalarSlot: map[string]int{}, arraySlot: map[string]int{}}
	ev.nSlot = c.scalar("N")
	for _, g := range k.Globals {
		ev.globSlots = append(ev.globSlots, c.array(g.Name))
	}
	for _, p := range k.Params {
		if p.IsArray {
			ev.paramSlots = append(ev.paramSlots, c.array(p.Name))
		} else {
			ev.paramSlots = append(ev.paramSlots, c.scalar(p.Name))
		}
	}
	ev.body = c.block(k.Body)
	ev.scalars = make([]Value, len(c.scalarSlot))
	ev.scalarDef = make([]bool, len(c.scalarSlot))
	ev.arrays = make([][]Value, len(c.arraySlot))
	ev.arrayDef = make([]bool, len(c.arraySlot))
	return ev
}

// Execute runs the kernel over n tasks. bufs maps each array parameter
// name to its backing storage (length >= n * Param.Length) and each scalar
// parameter to a single-element slice. Output buffers are written in
// place.
func (ev *Evaluator) Execute(n int, bufs map[string][]Value) error {
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
	_, err := ev.body()
	return err
}

func (ev *Evaluator) setScalar(s int, v Value) {
	ev.scalars[s] = v
	ev.scalarDef[s] = true
}

func (ev *Evaluator) setArray(s int, arr []Value) {
	ev.arrays[s] = arr
	ev.arrayDef[s] = true
}

// compiler lowers a kernel body to closures over ev's frame, assigning
// slots to names as it meets them. Scalars and arrays are separate
// namespaces, as they are in C-IR.
type compiler struct {
	ev         *Evaluator
	scalarSlot map[string]int
	arraySlot  map[string]int
}

func (c *compiler) scalar(name string) int { return slot(c.scalarSlot, name) }
func (c *compiler) array(name string) int  { return slot(c.arraySlot, name) }

func slot(slots map[string]int, name string) int {
	s, ok := slots[name]
	if !ok {
		s = len(slots)
		slots[name] = s
	}
	return s
}

// block compiles a statement sequence. Each statement costs one step,
// charged before it runs.
func (c *compiler) block(b Block) stmtFn {
	ev := c.ev
	fns := make([]stmtFn, len(b))
	for i, s := range b {
		fns[i] = c.stmt(s)
	}
	return func() (ctrl, error) {
		for _, f := range fns {
			ev.Steps++
			if ev.Steps > ev.MaxSteps {
				return ctrlNone, fmt.Errorf("cir: step budget exceeded (%d)", ev.MaxSteps)
			}
			if cc, err := f(); err != nil || cc != ctrlNone {
				return cc, err
			}
		}
		return ctrlNone, nil
	}
}

func (c *compiler) stmt(s Stmt) stmtFn {
	ev := c.ev
	switch s := s.(type) {
	case *Decl:
		slot, k := c.scalar(s.Name), s.K
		if s.Init == nil {
			return func() (ctrl, error) {
				ev.setScalar(slot, Value{K: k})
				return ctrlNone, nil
			}
		}
		init := c.expr(s.Init)
		return func() (ctrl, error) {
			x, err := init()
			if err != nil {
				return ctrlNone, err
			}
			ev.setScalar(slot, x.Convert(k))
			return ctrlNone, nil
		}
	case *ArrDecl:
		// Each ArrDecl owns one buffer, allocated on first execution and
		// re-zeroed on every later one. Reuse is safe because an array is
		// reachable only through its name: once the slot is rebound, the
		// buffer's previous contents can never be read again.
		slot, elem, n := c.array(s.Name), s.Elem, s.Len
		var buf []Value
		return func() (ctrl, error) {
			if buf == nil {
				buf = make([]Value, n)
			}
			for i := range buf {
				buf[i] = Value{K: elem}
			}
			ev.setArray(slot, buf)
			return ctrlNone, nil
		}
	case *Assign:
		return c.assign(s)
	case *If:
		cond, then, els := c.expr(s.Cond), c.block(s.Then), c.block(s.Else)
		return func() (ctrl, error) {
			cv, err := cond()
			if err != nil {
				return ctrlNone, err
			}
			if cv.IsTrue() {
				return then()
			}
			return els()
		}
	case *Loop:
		lo, hi, body := c.expr(s.Lo), c.expr(s.Hi), c.block(s.Body)
		if len(s.Body) == 0 {
			// An empty body charges no statement, so a loop whose index
			// never advances would escape the step budget: it costs one
			// step per iteration instead. A loop with a body keeps its
			// count.
			body = func() (ctrl, error) {
				ev.Steps++
				if ev.Steps > ev.MaxSteps {
					return ctrlNone, fmt.Errorf("cir: step budget exceeded (%d)", ev.MaxSteps)
				}
				return ctrlNone, nil
			}
		}
		slot, step := c.scalar(s.Var), s.Step
		return func() (ctrl, error) {
			l, err := lo()
			if err != nil {
				return ctrlNone, err
			}
			for i := l.AsInt(); ; i += step {
				h, err := hi()
				if err != nil {
					return ctrlNone, err
				}
				if i >= h.AsInt() {
					break
				}
				ev.setScalar(slot, IntVal(Int, i))
				cc, err := body()
				if err != nil {
					return ctrlNone, err
				}
				if cc == ctrlBreak {
					break
				}
				if cc == ctrlReturn {
					return ctrlReturn, nil
				}
			}
			return ctrlNone, nil
		}
	case *While:
		cond, body := c.expr(s.Cond), c.block(s.Body)
		return func() (ctrl, error) {
			for {
				cv, err := cond()
				if err != nil {
					return ctrlNone, err
				}
				if !cv.IsTrue() {
					return ctrlNone, nil
				}
				cc, err := body()
				if err != nil {
					return ctrlNone, err
				}
				if cc == ctrlBreak {
					return ctrlNone, nil
				}
				if cc == ctrlReturn {
					return ctrlReturn, nil
				}
				ev.Steps++
				if ev.Steps > ev.MaxSteps {
					return ctrlNone, fmt.Errorf("cir: step budget exceeded in while loop")
				}
			}
		}
	case *Break:
		return func() (ctrl, error) { return ctrlBreak, nil }
	case *Continue:
		return func() (ctrl, error) { return ctrlContinue, nil }
	case *Return:
		return func() (ctrl, error) { return ctrlReturn, nil }
	}
	return func() (ctrl, error) { return ctrlNone, fmt.Errorf("cir: unknown statement %T", s) }
}

// assign compiles a store. The RHS is evaluated first; an array target
// is resolved before its index is evaluated.
func (c *compiler) assign(s *Assign) stmtFn {
	ev := c.ev
	rhs := c.expr(s.RHS)
	switch lhs := s.LHS.(type) {
	case *VarRef:
		slot, k := c.scalar(lhs.Name), lhs.K
		return func() (ctrl, error) {
			v, err := rhs()
			if err != nil {
				return ctrlNone, err
			}
			ev.setScalar(slot, v.Convert(k))
			return ctrlNone, nil
		}
	case *Index:
		slot, idx, name, k := c.array(lhs.Arr), c.expr(lhs.Idx), lhs.Arr, lhs.K
		return func() (ctrl, error) {
			v, err := rhs()
			if err != nil {
				return ctrlNone, err
			}
			if !ev.arrayDef[slot] {
				return ctrlNone, fmt.Errorf("cir: store to unknown array %q", name)
			}
			arr := ev.arrays[slot]
			iv, err := idx()
			if err != nil {
				return ctrlNone, err
			}
			i := iv.AsInt()
			if i < 0 || i >= int64(len(arr)) {
				return ctrlNone, fmt.Errorf("cir: index %d out of bounds for array %q (len %d)", i, name, len(arr))
			}
			arr[i] = v.Convert(k)
			return ctrlNone, nil
		}
	}
	lhs := s.LHS
	return func() (ctrl, error) {
		if _, err := rhs(); err != nil {
			return ctrlNone, err
		}
		return ctrlNone, fmt.Errorf("cir: invalid assignment target %T", lhs)
	}
}

func (c *compiler) expr(e Expr) exprFn {
	ev := c.ev
	switch e := e.(type) {
	case *IntLit:
		v := IntVal(e.K, e.Val)
		return func() (Value, error) { return v, nil }
	case *FloatLit:
		v := FloatVal(e.K, e.Val)
		return func() (Value, error) { return v, nil }
	case *VarRef:
		slot, name := c.scalar(e.Name), e.Name
		return func() (Value, error) {
			if !ev.scalarDef[slot] {
				return Value{}, fmt.Errorf("cir: read of undefined variable %q", name)
			}
			return ev.scalars[slot], nil
		}
	case *Index:
		slot, idx, name := c.array(e.Arr), c.expr(e.Idx), e.Arr
		return func() (Value, error) {
			if !ev.arrayDef[slot] {
				return Value{}, fmt.Errorf("cir: read of unknown array %q", name)
			}
			arr := ev.arrays[slot]
			iv, err := idx()
			if err != nil {
				return Value{}, err
			}
			i := iv.AsInt()
			if i < 0 || i >= int64(len(arr)) {
				return Value{}, fmt.Errorf("cir: index %d out of bounds for array %q (len %d)", i, name, len(arr))
			}
			return arr[i], nil
		}
	case *Unary:
		return c.unary(e)
	case *Binary:
		l, r, op, k := c.expr(e.L), c.expr(e.R), e.Op, e.K
		if op.IsLogical() {
			// LAnd short-circuits on a false left operand, LOr on a true one.
			short := op == LOr
			return func() (Value, error) {
				lv, err := l()
				if err != nil {
					return Value{}, err
				}
				if lv.IsTrue() == short {
					return BoolVal(short), nil
				}
				rv, err := r()
				if err != nil {
					return Value{}, err
				}
				return BoolVal(rv.IsTrue()), nil
			}
		}
		return func() (Value, error) {
			lv, err := l()
			if err != nil {
				return Value{}, err
			}
			rv, err := r()
			if err != nil {
				return Value{}, err
			}
			return EvalBinary(op, k, lv, rv)
		}
	case *Cast:
		x, to := c.expr(e.X), e.To
		return func() (Value, error) {
			v, err := x()
			if err != nil {
				return Value{}, err
			}
			return v.Convert(to), nil
		}
	case *Cond:
		cond, t, f := c.expr(e.C), c.expr(e.T), c.expr(e.F)
		return func() (Value, error) {
			cv, err := cond()
			if err != nil {
				return Value{}, err
			}
			if cv.IsTrue() {
				return t()
			}
			return f()
		}
	case *Call:
		// One argument buffer per call site: a site never re-enters
		// itself, and an Evaluator runs on one goroutine.
		args := make([]exprFn, len(e.Args))
		for i, a := range e.Args {
			args[i] = c.expr(a)
		}
		vals, name, k := make([]Value, len(args)), e.Name, e.K
		return func() (Value, error) {
			for i, a := range args {
				v, err := a()
				if err != nil {
					return Value{}, err
				}
				vals[i] = v
			}
			return EvalIntrinsic(name, k, vals)
		}
	}
	return func() (Value, error) { return Value{}, fmt.Errorf("cir: unknown expression %T", e) }
}

// unary compiles a unary operator. An unknown operator still evaluates
// its operand first, so an operand error takes precedence.
func (c *compiler) unary(e *Unary) exprFn {
	x := c.expr(e.X)
	var apply func(Value) Value
	switch e.Op {
	case Neg:
		apply = func(v Value) Value {
			if v.K.IsFloat() {
				return FloatVal(v.K, -v.F)
			}
			return IntVal(v.K, -v.I)
		}
	case Not:
		apply = func(v Value) Value { return BoolVal(!v.IsTrue()) }
	case BitNot:
		apply = func(v Value) Value { return IntVal(v.K, ^v.I) }
	}
	return func() (Value, error) {
		v, err := x()
		if err != nil {
			return Value{}, err
		}
		if apply == nil {
			return Value{}, fmt.Errorf("cir: unknown expression %T", e)
		}
		return apply(v), nil
	}
}

// EvalBinary applies a non-logical binary operator to two scalar values
// with C semantics: comparisons yield Bool, arithmetic is performed at
// kind k. Shared by the IR evaluator and the JVM simulator so both sides
// of every differential test use identical scalar semantics.
func EvalBinary(op BinOp, k Kind, l, r Value) (Value, error) {
	if op.IsCompare() {
		var res bool
		if l.K.IsFloat() || r.K.IsFloat() {
			a, b := l.AsFloat(), r.AsFloat()
			res = compareFloat(op, a, b)
		} else {
			a, b := l.I, r.I
			res = compareInt(op, a, b)
		}
		return BoolVal(res), nil
	}
	if k.IsFloat() {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case Add:
			return FloatVal(k, a+b), nil
		case Sub:
			return FloatVal(k, a-b), nil
		case Mul:
			return FloatVal(k, a*b), nil
		case Div:
			return FloatVal(k, a/b), nil
		case Rem:
			return FloatVal(k, math.Mod(a, b)), nil
		}
		return Value{}, fmt.Errorf("cir: operator %s invalid for %s", op, k)
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case Add:
		return IntVal(k, a+b), nil
	case Sub:
		return IntVal(k, a-b), nil
	case Mul:
		return IntVal(k, a*b), nil
	case Div:
		if b == 0 {
			return Value{}, fmt.Errorf("cir: integer division by zero")
		}
		return IntVal(k, a/b), nil
	case Rem:
		if b == 0 {
			return Value{}, fmt.Errorf("cir: integer remainder by zero")
		}
		return IntVal(k, a%b), nil
	case And:
		return IntVal(k, a&b), nil
	case Or:
		return IntVal(k, a|b), nil
	case Xor:
		return IntVal(k, a^b), nil
	case Shl:
		return IntVal(k, a<<uint64(b&63)), nil
	case Shr:
		return IntVal(k, a>>uint64(b&63)), nil
	}
	return Value{}, fmt.Errorf("cir: unknown operator %s", op)
}

func compareInt(op BinOp, a, b int64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	}
	return false
}

func compareFloat(op BinOp, a, b float64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	}
	return false
}

// Intrinsics supported by Call nodes, matching the math methods the kdsl
// front-end accepts (java.lang.Math subset baked into S2FA's templates).
var Intrinsics = map[string]bool{
	"exp": true, "log": true, "sqrt": true, "fabs": true,
	"min": true, "max": true, "pow": true, "floor": true, "abs": true,
}

// EvalIntrinsic applies a math intrinsic to already-evaluated arguments.
// Shared by the IR evaluator and the JVM simulator so differential tests
// compare identical math semantics.
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
		return FloatVal(k, math.Exp(args[0].AsFloat())), nil
	case "log":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(k, math.Log(args[0].AsFloat())), nil
	case "sqrt":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(k, math.Sqrt(args[0].AsFloat())), nil
	case "fabs":
		if err := need(1); err != nil {
			return Value{}, err
		}
		return FloatVal(k, math.Abs(args[0].AsFloat())), nil
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
		return FloatVal(k, math.Floor(args[0].AsFloat())), nil
	case "pow":
		if err := need(2); err != nil {
			return Value{}, err
		}
		return FloatVal(k, math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
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
