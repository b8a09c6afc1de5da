// Package jvmsim executes kernel bytecode the way the paper's baseline
// does: a single-threaded Spark executor on a JVM (paper §5.2 uses one
// executor thread as the comparison point, since offloading to the FPGA
// occupies only one thread). It provides both ground-truth results for
// differential testing of the whole S2FA pipeline and the modeled
// execution times that Fig. 4 normalizes speedups against.
package jvmsim

import (
	"fmt"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// Val is a JVM runtime value: a primitive scalar, an array reference, or
// a tuple object.
type Val struct {
	S     cir.Value
	Arr   []cir.Value
	Tup   []Val
	IsArr bool
	IsTup bool
}

// Scalar wraps a primitive.
func Scalar(v cir.Value) Val { return Val{S: v} }

// Array wraps an array reference.
func Array(a []cir.Value) Val { return Val{Arr: a, IsArr: true} }

// Tuple wraps a tuple object.
func Tuple(fields ...Val) Val { return Val{Tup: fields, IsTup: true} }

func (v Val) String() string {
	switch {
	case v.IsArr:
		return fmt.Sprintf("array[%d]", len(v.Arr))
	case v.IsTup:
		return fmt.Sprintf("tuple%d", len(v.Tup))
	default:
		return v.S.String()
	}
}

// Counts tallies dynamic execution events for the cost model.
type Counts struct {
	ALU          int64 // arithmetic/logic/compare/cast on primitives
	FpALU        int64 // floating-point arithmetic
	ArrayOps     int64 // numeric array loads/stores (bounds-checked, JIT-friendly)
	ByteArrayOps int64 // char/byte array and string-like accesses (charAt-style)
	FieldOps     int64 // tuple field reads (boxed object access)
	Allocs       int64 // array/tuple allocations (GC pressure)
	Branches     int64
	Intrins      int64 // java.lang.Math calls
	LoadStore    int64 // local variable traffic
	Invokes      int64 // method invocations (per-element closure dispatch)
}

// Add accumulates o into c.
func (c *Counts) Add(o Counts) {
	c.ALU += o.ALU
	c.FpALU += o.FpALU
	c.ArrayOps += o.ArrayOps
	c.ByteArrayOps += o.ByteArrayOps
	c.FieldOps += o.FieldOps
	c.Allocs += o.Allocs
	c.Branches += o.Branches
	c.Intrins += o.Intrins
	c.LoadStore += o.LoadStore
	c.Invokes += o.Invokes
}

// VM executes methods of one class.
type VM struct {
	Class  *bytecode.Class
	Counts Counts
	// MaxSteps bounds one invocation. Zero means DefaultMaxSteps; the
	// effective budget is resolved in exactly one place (budget), shared
	// by the interpreter and the compiled (JIT) execution path so both
	// charge the step budget identically.
	MaxSteps int64
	// Trace, when non-nil, is invoked before each instruction executes
	// with the live frame (method, pc, operand stack, locals). Used by
	// the absint differential soundness harness; the hook must not
	// mutate the slices. A VM with a Trace hook always interprets — the
	// compiled path has no per-instruction observation point.
	Trace func(m *bytecode.Method, pc int, stack []Val, locals []Val)

	// prog, when non-nil (set by TryJIT), is the analyzed form of
	// Class; Call, Reduce, and Invoke execute through it (unless Trace
	// is set).
	prog *Program
	// free holds the arrays compiled invocations allocated and did not
	// return, for later ones to reuse (see frame.newArray).
	free [][]cir.Value
}

// DefaultMaxSteps is the per-invocation step budget applied when
// VM.MaxSteps is zero. One "step" is one executed bytecode instruction;
// the compiled path charges a block's steps on entry and hands a block
// that does not fit the remaining budget to the interpreter, so both
// engines exhaust the budget at the same instruction.
const DefaultMaxSteps = 500_000_000

// budget resolves the effective per-invocation step budget. This is the
// single place the DefaultMaxSteps fallback is applied; both execution
// engines read the budget through it.
func (vm *VM) budget() int64 {
	if vm.MaxSteps > 0 {
		return vm.MaxSteps
	}
	return DefaultMaxSteps
}

// New returns a VM for the class. It runs on the reference interpreter
// until TryJIT switches it to compiled execution.
func New(c *bytecode.Class) *VM {
	return &VM{Class: c}
}

// Call invokes the class's call method.
func (vm *VM) Call(in Val) (Val, error) {
	vm.Counts.Invokes++
	return vm.Invoke(vm.Class.Call, []Val{in})
}

// CallBatch invokes the class's call method on every task in order,
// returning the per-task outputs. Semantically identical to calling
// Call in a loop; after TryJIT the reusable frame arena makes
// this the compile-once/run-many fast path: once warm, a task allocates
// only what escapes in its output (arrays the kernel allocates and does
// not return are recycled for the next task).
func (vm *VM) CallBatch(in []Val) ([]Val, error) {
	out := make([]Val, len(in))
	for i, t := range in {
		v, err := vm.Call(t)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Reduce invokes the class's reduce method.
func (vm *VM) Reduce(a, b Val) (Val, error) {
	if vm.Class.Reduce == nil {
		return Val{}, fmt.Errorf("jvmsim: class %s has no reduce method", vm.Class.Name)
	}
	vm.Counts.Invokes++
	return vm.Invoke(vm.Class.Reduce, []Val{a, b})
}

// Invoke executes a method with the given arguments, through the
// compiled program when one is enabled (and no Trace hook demands
// per-instruction interpretation), otherwise through the interpreter.
// Both paths produce byte-identical outputs, Counts, and errors.
func (vm *VM) Invoke(m *bytecode.Method, args []Val) (Val, error) {
	if vm.prog != nil && vm.Trace == nil {
		if cm := vm.compiled(m); cm != nil {
			return vm.invokeCompiled(cm, args)
		}
	}
	return vm.interpret(m, args)
}

// interpret executes a method on the reference switch-dispatch
// interpreter.
func (vm *VM) interpret(m *bytecode.Method, args []Val) (Val, error) {
	if len(args) != len(m.Params) {
		return Val{}, fmt.Errorf("jvmsim: %s expects %d args, got %d", m.Name, len(m.Params), len(args))
	}
	locals := make([]Val, len(m.LocalTypes))
	copy(locals, args)
	return vm.run(m, locals, 0, 0)
}

// run interprets m from pc with the given locals and an empty operand
// stack, steps of the invocation's budget already spent. The compiled
// engine enters here at a block leader it hands over.
func (vm *VM) run(m *bytecode.Method, locals []Val, pc int, steps int64) (Val, error) {
	var stack []Val
	push := func(v Val) { stack = append(stack, v) }
	pop := func() Val {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	maxSteps := vm.budget()
	for {
		steps++
		if steps > maxSteps {
			return Val{}, fmt.Errorf("jvmsim: %s exceeded step budget", m.Name)
		}
		if pc < 0 || pc >= len(m.Code) {
			return Val{}, fmt.Errorf("jvmsim: %s: pc %d out of range", m.Name, pc)
		}
		in := m.Code[pc]
		if vm.Trace != nil {
			vm.Trace(m, pc, stack, locals)
		}
		// Each instruction is charged before it can fail, except OpBin,
		// charged once it succeeds, and OpUn, whose charge reads its
		// operand's kind.
		if in.Op != bytecode.OpBin && in.Op != bytecode.OpUn {
			vm.Counts.charge(&in, false)
		}
		switch in.Op {
		case bytecode.OpConst:
			push(Scalar(in.Val))
		case bytecode.OpLoad:
			push(locals[in.A])
		case bytecode.OpStore:
			locals[in.A] = pop()
		case bytecode.OpALoad:
			idx := pop().S.AsInt()
			arr := pop()
			if !arr.IsArr {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: aload on non-array", m.Name, pc)
			}
			if idx < 0 || idx >= int64(len(arr.Arr)) {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", m.Name, pc, idx, len(arr.Arr))
			}
			push(Scalar(arr.Arr[idx]))
		case bytecode.OpAStore:
			val := pop()
			idx := pop().S.AsInt()
			arr := pop()
			if !arr.IsArr {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: astore on non-array", m.Name, pc)
			}
			if idx < 0 || idx >= int64(len(arr.Arr)) {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: ArrayIndexOutOfBounds: %d (length %d)", m.Name, pc, idx, len(arr.Arr))
			}
			arr.Arr[idx] = val.S.Convert(arr.Arr[idx].K)
		case bytecode.OpArrayLen:
			arr := pop()
			push(Scalar(cir.IntVal(cir.Int, int64(len(arr.Arr)))))
		case bytecode.OpNewArray:
			n := pop().S.AsInt()
			if n < 0 {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: NegativeArraySize: %d", m.Name, pc, n)
			}
			arr := make([]cir.Value, n)
			for i := range arr {
				arr[i].K = in.Kind
			}
			push(Array(arr))
		case bytecode.OpGetField:
			tup := pop()
			if !tup.IsTup || in.A >= len(tup.Tup) {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: bad getfield _%d", m.Name, pc, in.A+1)
			}
			push(tup.Tup[in.A])
		case bytecode.OpNewTuple:
			fields := make([]Val, in.A)
			for i := in.A - 1; i >= 0; i-- {
				fields[i] = pop()
			}
			push(Tuple(fields...))
		case bytecode.OpGetStatic:
			sf := vm.Class.Static(in.Sym)
			if sf == nil {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: unknown static %q", m.Name, pc, in.Sym)
			}
			push(Array(sf.Data))
		case bytecode.OpBin:
			r := pop().S
			l := pop().S
			v, err := binOp(in, l, r)
			if err != nil {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: %w", m.Name, pc, err)
			}
			vm.Counts.charge(&in, false)
			push(Scalar(v))
		case bytecode.OpUn:
			x := pop().S
			vm.Counts.charge(&in, x.K.IsFloat())
			switch in.Un {
			case cir.Neg:
				if x.K.IsFloat() {
					push(Scalar(cir.FloatVal(x.K, -x.F)))
				} else {
					push(Scalar(cir.IntVal(x.K, -x.I)))
				}
			case cir.Not:
				push(Scalar(cir.BoolVal(!x.IsTrue())))
			case cir.BitNot:
				push(Scalar(cir.IntVal(x.K, ^x.I)))
			}
		case bytecode.OpCast:
			push(Scalar(pop().S.Convert(in.Kind)))
		case bytecode.OpIntrin:
			v, err := intrin(in, &stack)
			if err != nil {
				return Val{}, fmt.Errorf("jvmsim: %s@%d: %w", m.Name, pc, err)
			}
			push(Scalar(v))
		case bytecode.OpGoto:
			pc = in.Target
			continue
		case bytecode.OpBrFalse:
			if !pop().S.IsTrue() {
				pc = in.Target
				continue
			}
		case bytecode.OpBrTrue:
			if pop().S.IsTrue() {
				pc = in.Target
				continue
			}
		case bytecode.OpReturn:
			if m.Ret.Kind == cir.Void && !m.Ret.Array && !m.Ret.IsTuple() {
				return Val{}, nil
			}
			return pop(), nil
		default:
			return Val{}, fmt.Errorf("jvmsim: %s@%d: unknown opcode", m.Name, pc)
		}
		pc++
	}
}

// isByteArrayKind buckets an array access by element class: narrow
// character-like elements model the String/char path of the paper's Scala
// kernels (charAt, boxing) and cost more than JIT-vectorizable numeric
// arrays.
func isByteArrayKind(k cir.Kind) bool {
	switch k {
	case cir.Char, cir.Bool, cir.Short:
		return true
	}
	return false
}

func binOp(in bytecode.Instr, l, r cir.Value) (cir.Value, error) {
	switch in.Bin {
	case cir.LAnd:
		return cir.BoolVal(l.IsTrue() && r.IsTrue()), nil
	case cir.LOr:
		return cir.BoolVal(l.IsTrue() || r.IsTrue()), nil
	}
	return cir.EvalBinary(in.Bin, in.Kind, l, r)
}

func intrin(in bytecode.Instr, stack *[]Val) (cir.Value, error) {
	args := make([]cir.Value, in.A)
	for i := in.A - 1; i >= 0; i-- {
		s := *stack
		args[i] = s[len(s)-1].S
		*stack = s[:len(s)-1]
	}
	return cir.EvalIntrinsic(in.Sym, in.Kind, args)
}
