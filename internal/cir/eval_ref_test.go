package cir_test

// The tree-walking evaluator that executed C-IR kernels before
// cir.Evaluator compiled them into slot-resolved closures, kept verbatim
// (only package-qualified) as the reference oracle the compiled evaluator
// is checked against: TestEvaluatorMatchesReference and
// FuzzEvalVsReference require identical output buffers, Steps and error
// strings. It keeps every scalar and array in a map keyed by name and
// allocates each local array afresh on every ArrDecl.

import (
	"fmt"

	"s2fa/internal/cir"
)

type refEvaluator struct {
	kernel  *cir.Kernel
	scalars map[string]cir.Value
	arrays  map[string][]cir.Value
	// Steps counts executed statements (plus one per completed While
	// iteration and one per iteration of a Loop with an empty body), as a
	// cheap sanity metric and an infinite-loop guard for property tests.
	Steps    int64
	MaxSteps int64
}

type ctrl uint8

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// newRefEvaluator prepares an evaluator for kernel k. MaxSteps defaults to
// 100M statements.
func newRefEvaluator(k *cir.Kernel) *refEvaluator {
	return &refEvaluator{kernel: k, MaxSteps: 100_000_000}
}

// Execute runs the kernel over n tasks. bufs maps each array parameter
// name to its backing storage (length >= n * Param.Length) and each scalar
// parameter to a single-element slice. Output buffers are written in
// place.
func (ev *refEvaluator) Execute(n int, bufs map[string][]cir.Value) error {
	ev.scalars = map[string]cir.Value{"N": cir.IntVal(cir.Int, int64(n))}
	ev.arrays = map[string][]cir.Value{}
	for i := range ev.kernel.Globals {
		g := &ev.kernel.Globals[i]
		ev.arrays[g.Name] = g.Data
	}
	for _, p := range ev.kernel.Params {
		buf, ok := bufs[p.Name]
		if !ok {
			return fmt.Errorf("cir: missing buffer for parameter %q", p.Name)
		}
		if p.IsArray {
			if want := n * p.Length; len(buf) < want {
				return fmt.Errorf("cir: buffer %q has %d elements, kernel needs %d", p.Name, len(buf), want)
			}
			ev.arrays[p.Name] = buf
		} else {
			if len(buf) != 1 {
				return fmt.Errorf("cir: scalar parameter %q needs a 1-element buffer", p.Name)
			}
			ev.scalars[p.Name] = buf[0].Convert(p.Elem)
		}
	}
	ev.Steps = 0
	_, err := ev.block(ev.kernel.Body)
	return err
}

func (ev *refEvaluator) block(b cir.Block) (ctrl, error) {
	for _, s := range b {
		c, err := ev.stmt(s)
		if err != nil || c != ctrlNone {
			return c, err
		}
	}
	return ctrlNone, nil
}

func (ev *refEvaluator) stmt(s cir.Stmt) (ctrl, error) {
	ev.Steps++
	if ev.Steps > ev.MaxSteps {
		return ctrlNone, fmt.Errorf("cir: step budget exceeded (%d)", ev.MaxSteps)
	}
	switch s := s.(type) {
	case *cir.Decl:
		v := cir.Value{K: s.K}
		if s.Init != nil {
			x, err := ev.expr(s.Init)
			if err != nil {
				return ctrlNone, err
			}
			v = x.Convert(s.K)
		}
		ev.scalars[s.Name] = v
		return ctrlNone, nil
	case *cir.ArrDecl:
		arr := make([]cir.Value, s.Len)
		for i := range arr {
			arr[i].K = s.Elem
		}
		ev.arrays[s.Name] = arr
		return ctrlNone, nil
	case *cir.Assign:
		v, err := ev.expr(s.RHS)
		if err != nil {
			return ctrlNone, err
		}
		return ctrlNone, ev.store(s.LHS, v)
	case *cir.If:
		c, err := ev.expr(s.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if c.IsTrue() {
			return ev.block(s.Then)
		}
		return ev.block(s.Else)
	case *cir.Loop:
		lo, err := ev.expr(s.Lo)
		if err != nil {
			return ctrlNone, err
		}
		for i := lo.AsInt(); ; i += s.Step {
			hi, err := ev.expr(s.Hi)
			if err != nil {
				return ctrlNone, err
			}
			if i >= hi.AsInt() {
				break
			}
			ev.scalars[s.Var] = cir.IntVal(cir.Int, i)
			if len(s.Body) == 0 {
				ev.Steps++
				if ev.Steps > ev.MaxSteps {
					return ctrlNone, fmt.Errorf("cir: step budget exceeded (%d)", ev.MaxSteps)
				}
			}
			c, err := ev.block(s.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				break
			}
			if c == ctrlReturn {
				return ctrlReturn, nil
			}
		}
		return ctrlNone, nil
	case *cir.While:
		for {
			c, err := ev.expr(s.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !c.IsTrue() {
				return ctrlNone, nil
			}
			cc, err := ev.block(s.Body)
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
	case *cir.Break:
		return ctrlBreak, nil
	case *cir.Continue:
		return ctrlContinue, nil
	case *cir.Return:
		return ctrlReturn, nil
	}
	return ctrlNone, fmt.Errorf("cir: unknown statement %T", s)
}

func (ev *refEvaluator) store(lhs cir.Expr, v cir.Value) error {
	switch lhs := lhs.(type) {
	case *cir.VarRef:
		ev.scalars[lhs.Name] = v.Convert(lhs.K)
		return nil
	case *cir.Index:
		arr, ok := ev.arrays[lhs.Arr]
		if !ok {
			return fmt.Errorf("cir: store to unknown array %q", lhs.Arr)
		}
		idx, err := ev.expr(lhs.Idx)
		if err != nil {
			return err
		}
		i := idx.AsInt()
		if i < 0 || i >= int64(len(arr)) {
			return fmt.Errorf("cir: index %d out of bounds for array %q (len %d)", i, lhs.Arr, len(arr))
		}
		arr[i] = v.Convert(lhs.K)
		return nil
	}
	return fmt.Errorf("cir: invalid assignment target %T", lhs)
}

func (ev *refEvaluator) expr(e cir.Expr) (cir.Value, error) {
	switch e := e.(type) {
	case *cir.IntLit:
		return cir.IntVal(e.K, e.Val), nil
	case *cir.FloatLit:
		return cir.FloatVal(e.K, e.Val), nil
	case *cir.VarRef:
		v, ok := ev.scalars[e.Name]
		if !ok {
			return cir.Value{}, fmt.Errorf("cir: read of undefined variable %q", e.Name)
		}
		return v, nil
	case *cir.Index:
		arr, ok := ev.arrays[e.Arr]
		if !ok {
			return cir.Value{}, fmt.Errorf("cir: read of unknown array %q", e.Arr)
		}
		idx, err := ev.expr(e.Idx)
		if err != nil {
			return cir.Value{}, err
		}
		i := idx.AsInt()
		if i < 0 || i >= int64(len(arr)) {
			return cir.Value{}, fmt.Errorf("cir: index %d out of bounds for array %q (len %d)", i, e.Arr, len(arr))
		}
		return arr[i], nil
	case *cir.Unary:
		x, err := ev.expr(e.X)
		if err != nil {
			return cir.Value{}, err
		}
		switch e.Op {
		case cir.Neg:
			if x.K.IsFloat() {
				return cir.FloatVal(x.K, -x.F), nil
			}
			return cir.IntVal(x.K, -x.I), nil
		case cir.Not:
			return cir.BoolVal(!x.IsTrue()), nil
		case cir.BitNot:
			return cir.IntVal(x.K, ^x.I), nil
		}
	case *cir.Binary:
		if e.Op.IsLogical() {
			l, err := ev.expr(e.L)
			if err != nil {
				return cir.Value{}, err
			}
			if e.Op == cir.LAnd && !l.IsTrue() {
				return cir.BoolVal(false), nil
			}
			if e.Op == cir.LOr && l.IsTrue() {
				return cir.BoolVal(true), nil
			}
			r, err := ev.expr(e.R)
			if err != nil {
				return cir.Value{}, err
			}
			return cir.BoolVal(r.IsTrue()), nil
		}
		l, err := ev.expr(e.L)
		if err != nil {
			return cir.Value{}, err
		}
		r, err := ev.expr(e.R)
		if err != nil {
			return cir.Value{}, err
		}
		return cir.EvalBinary(e.Op, e.K, l, r)
	case *cir.Cast:
		x, err := ev.expr(e.X)
		if err != nil {
			return cir.Value{}, err
		}
		return x.Convert(e.To), nil
	case *cir.Cond:
		c, err := ev.expr(e.C)
		if err != nil {
			return cir.Value{}, err
		}
		if c.IsTrue() {
			return ev.expr(e.T)
		}
		return ev.expr(e.F)
	case *cir.Call:
		return ev.call(e)
	}
	return cir.Value{}, fmt.Errorf("cir: unknown expression %T", e)
}

func (ev *refEvaluator) call(e *cir.Call) (cir.Value, error) {
	args := make([]cir.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := ev.expr(a)
		if err != nil {
			return cir.Value{}, err
		}
		args[i] = v
	}
	return cir.EvalIntrinsic(e.Name, e.K, args)
}
