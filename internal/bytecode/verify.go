package bytecode

import (
	"fmt"

	"s2fa/internal/cir"
	"s2fa/internal/compile"
)

// Verify checks a method's bytecode for well-formedness:
//
//   - branch targets in range,
//   - local slot indices valid and type-consistent,
//   - operand stack discipline (no underflow, type-correct operands),
//   - the statement-boundary invariant: the operand stack is empty at
//     every branch, branch target, and fall-through into a leader.
//
// The last property is what javac-style statement-oriented code
// generation produces and what the bytecode-to-C compiler's
// expression-lifting pass (internal/b2c) relies on.
//
// Verify also enforces the §3.3 legality rules that are decidable
// per-instruction (constant newarray sizes, the intrinsic whitelist).
// VerifyClassStructural checks everything except those two, so
// diagnostic passes can analyze an illegal-but-well-formed kernel and
// report the violations with source positions instead of stopping at
// the first.
// api:allow per-method verifier for the absint and b2c tests, whose hand-built methods no class wraps
func Verify(m *Method) error { return verify(m, true) }

func verify(m *Method, legality bool) error {
	v := verifiers.Get()
	defer verifiers.Put(v)
	return v.verify(m, legality)
}

// verifier holds the operand stack and leader bitmap; they grow once and
// are reused by every method verified with the same verifier. verifiers
// pools them across calls.
type verifier struct {
	stack   []TypeDesc
	leaders []bool
}

var verifiers = compile.NewPool[verifier]()

func (v *verifier) verify(m *Method, legality bool) error {
	n := len(m.Code)
	if n == 0 {
		return fmt.Errorf("bytecode: %s: empty code", m.Name)
	}
	for i, in := range m.Code {
		switch in.Op {
		case OpGoto, OpBrFalse, OpBrTrue:
			if in.Target < 0 || in.Target >= n {
				return fmt.Errorf("bytecode: %s@%d: branch target %d out of range", m.Name, i, in.Target)
			}
		}
	}
	leaders := leadersInto(m, v.leaders)
	v.leaders = leaders
	stack := v.stack[:0]
	push := func(t TypeDesc) { stack = append(stack, t) }
	pop := func(at int) (TypeDesc, error) {
		if len(stack) == 0 {
			return TypeDesc{}, fmt.Errorf("bytecode: %s@%d: stack underflow", m.Name, at)
		}
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return t, nil
	}

	constLen := -1 // tracks a preceding constant for NewArray
	for i, in := range m.Code {
		if leaders[i] && len(stack) != 0 {
			return fmt.Errorf("bytecode: %s@%d: non-empty stack (%d) at block boundary", m.Name, i, len(stack))
		}
		switch in.Op {
		case OpConst:
			push(Prim(in.Kind))
			constLen = int(in.Val.I)
			continue
		case OpLoad:
			if in.A < 0 || in.A >= len(m.LocalTypes) {
				return fmt.Errorf("bytecode: %s@%d: load from invalid slot %d", m.Name, i, in.A)
			}
			push(m.LocalTypes[in.A])
		case OpStore:
			if in.A < 0 || in.A >= len(m.LocalTypes) {
				return fmt.Errorf("bytecode: %s@%d: store to invalid slot %d", m.Name, i, in.A)
			}
			t, err := pop(i)
			if err != nil {
				return err
			}
			want := m.LocalTypes[in.A]
			if t.Array != want.Array || t.IsTuple() != want.IsTuple() {
				return fmt.Errorf("bytecode: %s@%d: store of %s into slot of type %s", m.Name, i, t, want)
			}
		case OpALoad:
			if _, err := pop(i); err != nil { // index
				return err
			}
			arr, err := pop(i)
			if err != nil {
				return err
			}
			if !arr.Array {
				return fmt.Errorf("bytecode: %s@%d: aload from non-array %s", m.Name, i, arr)
			}
			push(Prim(in.Kind))
		case OpAStore:
			if _, err := pop(i); err != nil { // value
				return err
			}
			if _, err := pop(i); err != nil { // index
				return err
			}
			arr, err := pop(i)
			if err != nil {
				return err
			}
			if !arr.Array {
				return fmt.Errorf("bytecode: %s@%d: astore to non-array %s", m.Name, i, arr)
			}
		case OpArrayLen:
			arr, err := pop(i)
			if err != nil {
				return err
			}
			if !arr.Array {
				return fmt.Errorf("bytecode: %s@%d: arraylen of non-array %s", m.Name, i, arr)
			}
			push(Prim(cir.Int))
		case OpNewArray:
			if _, err := pop(i); err != nil {
				return err
			}
			if legality && constLen < 0 {
				return fmt.Errorf("bytecode: %s@%d: newarray length is not a compile-time constant (dynamic allocation is unsupported on the FPGA)", m.Name, i)
			}
			push(ArrayOf(in.Kind))
		case OpGetField:
			tup, err := pop(i)
			if err != nil {
				return err
			}
			if !tup.IsTuple() {
				return fmt.Errorf("bytecode: %s@%d: getfield on non-tuple %s", m.Name, i, tup)
			}
			if in.A < 0 || in.A >= len(tup.Tuple) {
				return fmt.Errorf("bytecode: %s@%d: field _%d out of range for %s", m.Name, i, in.A+1, tup)
			}
			push(tup.Tuple[in.A])
		case OpNewTuple:
			if in.A < 2 || in.A > 4 {
				return fmt.Errorf("bytecode: %s@%d: tuple arity %d unsupported", m.Name, i, in.A)
			}
			fields := make([]TypeDesc, in.A)
			for j := in.A - 1; j >= 0; j-- {
				t, err := pop(i)
				if err != nil {
					return err
				}
				fields[j] = t
			}
			push(TupleOf(fields...))
		case OpGetStatic:
			if in.Sym == "" {
				return fmt.Errorf("bytecode: %s@%d: getstatic without symbol", m.Name, i)
			}
			push(ArrayOf(in.Kind))
		case OpBin:
			if _, err := pop(i); err != nil {
				return err
			}
			if _, err := pop(i); err != nil {
				return err
			}
			if in.Bin.IsCompare() {
				push(Prim(cir.Bool))
			} else {
				push(Prim(in.Kind))
			}
		case OpUn:
			if _, err := pop(i); err != nil {
				return err
			}
			if in.Un == cir.Not {
				push(Prim(cir.Bool))
			} else {
				push(Prim(in.Kind))
			}
		case OpCast:
			if _, err := pop(i); err != nil {
				return err
			}
			push(Prim(in.Kind))
		case OpIntrin:
			if legality && !cir.Intrinsics[in.Sym] {
				return fmt.Errorf("bytecode: %s@%d: unknown intrinsic %q (library calls are unsupported, paper §3.3)", m.Name, i, in.Sym)
			}
			for j := 0; j < in.A; j++ {
				if _, err := pop(i); err != nil {
					return err
				}
			}
			push(Prim(in.Kind))
		case OpGoto:
			if len(stack) != 0 {
				return fmt.Errorf("bytecode: %s@%d: goto with non-empty stack", m.Name, i)
			}
		case OpBrFalse, OpBrTrue:
			if _, err := pop(i); err != nil {
				return err
			}
			if len(stack) != 0 {
				return fmt.Errorf("bytecode: %s@%d: branch with non-empty stack", m.Name, i)
			}
		case OpReturn:
			if m.Ret.Kind != cir.Void || m.Ret.Array || m.Ret.IsTuple() {
				if _, err := pop(i); err != nil {
					return err
				}
			}
			if len(stack) != 0 {
				return fmt.Errorf("bytecode: %s@%d: return with non-empty stack", m.Name, i)
			}
		default:
			return fmt.Errorf("bytecode: %s@%d: unknown opcode %d", m.Name, i, in.Op)
		}
		constLen = -1
	}
	last := m.Code[n-1]
	if last.Op != OpReturn && last.Op != OpGoto {
		return fmt.Errorf("bytecode: %s: code falls off the end", m.Name)
	}
	v.stack = stack[:0]
	return nil
}

// VerifyClass verifies all methods of a class and its template metadata.
func VerifyClass(c *Class) error { return verifyClass(c, true) }

// VerifyClassStructural is VerifyClass with the per-method §3.3 legality
// rules deferred: branch targets, slot usage, and stack discipline are
// verified, and §3.3 legality is left to the abstract interpreter's
// sourced diagnostics.
func VerifyClassStructural(c *Class) error { return verifyClass(c, false) }

func verifyClass(c *Class, legality bool) error {
	if c.Call == nil {
		return fmt.Errorf("bytecode: class %s has no call method", c.Name)
	}
	v := verifiers.Get()
	defer verifiers.Put(v)
	if err := v.verify(c.Call, legality); err != nil {
		return err
	}
	if c.Reduce != nil {
		if err := v.verify(c.Reduce, legality); err != nil {
			return err
		}
	}
	arity := 1
	if c.Call.Params[0].IsTuple() {
		arity = len(c.Call.Params[0].Tuple)
	}
	if len(c.InSizes) != arity {
		return fmt.Errorf("bytecode: class %s: InSizes has %d entries for %d input fields", c.Name, len(c.InSizes), arity)
	}
	return nil
}
