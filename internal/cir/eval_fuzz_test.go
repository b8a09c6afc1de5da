package cir_test

import (
	"testing"

	"s2fa/internal/cir"
)

// FuzzEvalVsReference builds a kernel from the fuzz input and requires
// the compiled evaluator to match the reference walker over two
// executions of one evaluator: same buffers, Steps and error text. The
// kernels mix every statement and expression form, names that are never
// bound, local arrays that shadow parameters and globals, out-of-range
// indices, zero divisors, bad intrinsic calls, Cond arms of different
// kinds, host buffers whose element kinds disagree with the declared
// ones, missing or short buffers and small step budgets.
func FuzzEvalVsReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x03\x02\x01\x04\x00\x07\x09\x02\x06\x01\x03\x05\x08"))
	f.Add([]byte("compiled closures over a frame of slots, checked against the walker"))
	f.Add([]byte{1, 2, 3, 0, 0, 5, 9, 4, 4, 4, 6, 1, 7, 7, 2, 8, 3, 3, 9, 0, 1, 6, 5, 2, 200, 17, 33, 90})
	// o[_t] = sqrt(17) at kind Int: the double result truncates to 4.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 3, 0, 2, 0, 9, 0, 2, 0, 0, 0, 17, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := &fuzzBuilder{data: data}
		k := b.kernel()
		maxSteps := int64(20 + 12*((b.byte()+128)%256))
		runs := []execution{b.execution(), b.execution()}
		if d := diffRuns(k, maxSteps, runs); d != "" {
			t.Fatalf("%s\nkernel:\n%s", d, cir.Print(k))
		}
	})
}

// fuzzBuilder draws kernels and buffers from fuzz bytes; an exhausted
// input reads as zeros, so every input yields a finite kernel.
type fuzzBuilder struct {
	data []byte
}

func (b *fuzzBuilder) byte() int {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[0]
	b.data = b.data[1:]
	return int(c)
}

func (b *fuzzBuilder) pick(n int) int { return b.byte() % n }

var (
	fuzzKinds = []cir.Kind{cir.Int, cir.Long, cir.Double, cir.Float, cir.Char, cir.Short, cir.Bool}
	// Scalar names: the task count, the task loop index, the scalar
	// parameter, locals, and a name nothing binds.
	fuzzScalars = []string{"N", "_t", "s", "x", "y", "z", "ghost"}
	// Array names: parameters, the global, a local, and an unbound name.
	// Few names, so that a declaration often shadows or redeclares the
	// array that a later access reads.
	fuzzArrays = []string{"a", "d", "o", "g", "t", "nope"}
	fuzzCalls  = []string{"exp", "log", "sqrt", "fabs", "abs", "floor", "pow", "min", "max", "nosuch"}
)

func (b *fuzzBuilder) kind() cir.Kind { return fuzzKinds[b.pick(len(fuzzKinds))] }

// kernel draws parameters a (Int array), d (Double array), output o
// (Int array), scalar s (Long) and global g, and a body that is either a
// task loop over N or free-standing statements.
func (b *fuzzBuilder) kernel() *cir.Kernel {
	k := &cir.Kernel{
		Name: "fz", TaskLoopID: "L0",
		Params: []cir.Param{
			{Name: "a", Elem: cir.Int, IsArray: true, Length: 1 + b.pick(3)},
			{Name: "d", Elem: cir.Double, IsArray: true, Length: 1 + b.pick(3)},
			{Name: "o", Elem: cir.Int, IsArray: true, Length: 1 + b.pick(3), IsOutput: true},
			{Name: "s", Elem: cir.Long},
		},
		Globals: []cir.Global{{Name: "g", Elem: cir.Int, Data: []cir.Value{
			cir.IntVal(cir.Int, 3), cir.IntVal(cir.Int, -1), cir.IntVal(cir.Int, 0)}}},
	}
	// x is bound up front, so that most scalar reads succeed.
	pre := append(cir.Block{&cir.Decl{Name: "x", K: cir.Long, Init: &cir.VarRef{K: cir.Long, Name: "s"}}}, b.block(2, 0)...)
	if b.pick(4) == 0 {
		k.Body = append(pre, b.block(3, 1)...)
		return k
	}
	body := b.block(3, 1)
	if b.pick(2) == 0 {
		// A local array declared per task and read before the task
		// writes it: every task must find it zeroed.
		body = append(cir.Block{
			&cir.ArrDecl{Name: "t", Elem: cir.Int, Len: 4},
			&cir.Assign{LHS: &cir.Index{K: cir.Int, Arr: "o", Idx: &cir.VarRef{K: cir.Int, Name: "_t"}},
				RHS: &cir.Index{K: cir.Int, Arr: "t", Idx: &cir.IntLit{K: cir.Int, Val: int64(b.pick(4))}}},
		}, body...)
	}
	task := &cir.Loop{ID: "L0", Var: "_t", Lo: &cir.IntLit{K: cir.Int}, Hi: &cir.VarRef{K: cir.Int, Name: "N"},
		Step: 1, Body: body}
	k.Body = append(pre, task)
	return k
}

// execution draws a task count and the buffers for it: usually complete,
// sometimes with one missing, one short, or a scalar buffer of two
// elements. An input buffer's elements sometimes disagree with the
// parameter's declared kind (Double values in a, Int in d, Float in s),
// as a host may hand over. An exhausted input draws one task and
// complete buffers of the declared kinds.
func (b *fuzzBuilder) execution() execution {
	n := (1 + b.byte()) % 4
	bufs := map[string][]cir.Value{
		"a": b.values(n*3, b.hostKind(cir.Int, cir.Double)),
		"d": b.values(n*3, b.hostKind(cir.Double, cir.Int)),
		"o": make([]cir.Value, n*3),
		"s": b.values(1, b.hostKind(cir.Long, cir.Float)),
	}
	for i := range bufs["o"] {
		bufs["o"][i].K = cir.Int
	}
	switch b.pick(12) {
	case 1:
		delete(bufs, []string{"a", "d", "o", "s"}[b.pick(4)])
	case 2:
		if n > 0 {
			bufs["a"] = bufs["a"][:n-1]
		}
	case 3:
		bufs["s"] = append(bufs["s"], bufs["s"]...)
	}
	return execution{n: n, bufs: bufs}
}

// hostKind is the element kind of one host buffer: usually the declared
// kind, one time in three the mismatched one.
func (b *fuzzBuilder) hostKind(declared, mismatched cir.Kind) cir.Kind {
	if b.pick(3) == 2 {
		return mismatched
	}
	return declared
}

func (b *fuzzBuilder) values(n int, k cir.Kind) []cir.Value {
	out := make([]cir.Value, n)
	for i := range out {
		v := int64(int8(b.byte()))
		if k.IsFloat() {
			out[i] = cir.FloatVal(k, float64(v)/4)
		} else {
			out[i] = cir.IntVal(k, v)
		}
	}
	return out
}

// block draws min to min+2 statements. Every loop iteration costs at
// least one step, an empty Loop body included, so the step budget
// bounds every kernel.
func (b *fuzzBuilder) block(depth, min int) cir.Block {
	var out cir.Block
	for i, n := 0, min+b.pick(3); i < n; i++ {
		out = append(out, b.stmt(depth))
	}
	return out
}

func (b *fuzzBuilder) stmt(depth int) cir.Stmt {
	choices := 5
	if depth > 0 {
		choices = 9
	}
	switch b.pick(choices) {
	case 0:
		d := &cir.Decl{Name: fuzzScalars[3+b.pick(3)], K: b.kind()}
		if b.pick(3) > 0 {
			d.Init = b.expr(2)
		}
		return d
	case 1:
		return &cir.ArrDecl{Name: fuzzArrays[b.pick(len(fuzzArrays)-1)], Elem: b.kind(), Len: (1 + b.byte()) % 5}
	case 2, 3:
		var lhs cir.Expr
		switch b.pick(8) {
		case 0, 1, 2:
			lhs = &cir.VarRef{K: b.kind(), Name: fuzzScalars[b.pick(len(fuzzScalars))]}
		case 7:
			lhs = &cir.IntLit{K: cir.Int, Val: 1} // not assignable
		default:
			lhs = &cir.Index{K: b.kind(), Arr: fuzzArrays[b.pick(len(fuzzArrays))], Idx: b.index(2)}
		}
		return &cir.Assign{LHS: lhs, RHS: b.expr(3)}
	case 4:
		return []cir.Stmt{&cir.Break{}, &cir.Continue{}, &cir.Return{}}[b.pick(3)]
	case 5, 6:
		s := &cir.If{Cond: b.expr(2), Then: b.block(depth-1, 0)}
		if b.pick(2) == 0 {
			s.Else = b.block(depth-1, 0)
		}
		return s
	case 7:
		return &cir.Loop{ID: "L", Var: fuzzScalars[1+b.pick(5)], Lo: b.expr(1), Hi: b.expr(2),
			Step: int64(b.pick(4)) - 1, Body: b.block(depth-1, 0)}
	default:
		return &cir.While{Cond: b.expr(2), Body: b.block(depth-1, 0)}
	}
}

// index is usually a small constant or the task index, so that most
// accesses land in bounds and their values reach the outputs.
func (b *fuzzBuilder) index(depth int) cir.Expr {
	switch b.pick(4) {
	case 0:
		return &cir.VarRef{K: cir.Int, Name: "_t"}
	case 1:
		return b.expr(depth)
	}
	return &cir.IntLit{K: cir.Int, Val: int64(b.pick(4))}
}

func (b *fuzzBuilder) expr(depth int) cir.Expr {
	choices := 3
	if depth > 0 {
		choices = 10
	}
	switch b.pick(choices) {
	case 0:
		return &cir.IntLit{K: b.kind(), Val: int64(int8(b.byte()))}
	case 1:
		// Mostly a name that is bound in most kernels.
		name := fuzzScalars[b.pick(4)]
		if b.pick(4) == 3 {
			name = fuzzScalars[b.pick(len(fuzzScalars))]
		}
		return &cir.VarRef{K: b.kind(), Name: name}
	case 2:
		k := cir.Double
		if b.pick(2) == 0 {
			k = cir.Float
		}
		return &cir.FloatLit{K: k, Val: float64(int8(b.byte())) / 4}
	case 3:
		return &cir.Index{K: b.kind(), Arr: fuzzArrays[b.pick(len(fuzzArrays))], Idx: b.index(depth - 1)}
	case 4:
		// Op 3 is not a unary operator: an error after the operand.
		return &cir.Unary{Op: cir.UnOp(b.pick(4)), X: b.expr(depth - 1)}
	case 5, 6:
		return &cir.Binary{K: b.kind(), Op: cir.BinOp(b.pick(int(cir.LOr) + 1)), L: b.expr(depth - 1), R: b.expr(depth - 1)}
	case 7:
		return &cir.Cast{To: b.kind(), X: b.expr(depth - 1)}
	case 8:
		c := &cir.Cond{C: b.expr(depth - 1), T: b.expr(depth - 1), F: b.expr(depth - 1)}
		if b.pick(3) == 0 {
			// Arms of an integer and a floating kind: the result's kind
			// is known only at run time.
			c.T = &cir.IntLit{K: cir.Int, Val: int64(int8(b.byte()))}
			c.F = &cir.FloatLit{K: cir.Double, Val: float64(int8(b.byte())) / 4}
		}
		return c
	default:
		// Mostly the intrinsic's own arity, sometimes one too many.
		c := &cir.Call{K: b.kind(), Name: fuzzCalls[b.pick(len(fuzzCalls))]}
		n := 1 + b.pick(8)/7
		if c.Name == "pow" || c.Name == "min" || c.Name == "max" {
			n++
		}
		for i := 0; i < n; i++ {
			c.Args = append(c.Args, b.expr(depth-1))
		}
		return c
	}
}
