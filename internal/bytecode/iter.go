package bytecode

// Leaders returns a parallel flag slice marking the basic-block leaders
// of a method: instruction 0, every branch target, and every
// fall-through successor of a branch. Out-of-range targets are ignored —
// callers that care (the verifier) reject them separately.
//
// The verifier uses leaders to enforce the statement-boundary invariant
// (empty operand stack at every block boundary); the jvmsim JIT splits
// methods into the same blocks, so a statement tree never spans an
// instruction some branch can land on.
func Leaders(m *Method) []bool { return leadersInto(m, nil) }

// leadersInto is Leaders with a reusable buffer (resized and cleared, or
// grown when too small).
func leadersInto(m *Method, buf []bool) []bool {
	if cap(buf) >= len(m.Code) {
		buf = buf[:len(m.Code)]
		clear(buf)
	} else {
		buf = make([]bool, len(m.Code))
	}
	if len(buf) > 0 {
		buf[0] = true
	}
	for i, in := range m.Code {
		switch in.Op {
		case OpGoto, OpBrFalse, OpBrTrue:
			if in.Target >= 0 && in.Target < len(m.Code) {
				buf[in.Target] = true
			}
			if i+1 < len(m.Code) {
				buf[i+1] = true
			}
		}
	}
	return buf
}

// StackEffect returns the net operand-stack depth change of executing
// one instruction (pushes minus pops). retVoid tells whether the
// enclosing method returns void, which decides whether OpReturn pops a
// value. Shared by the verifier-style depth analysis in the jvmsim JIT.
func StackEffect(in Instr, retVoid bool) int {
	switch in.Op {
	case OpConst, OpLoad, OpGetStatic:
		return 1
	case OpStore, OpALoad, OpBin, OpBrFalse, OpBrTrue:
		return -1
	case OpAStore:
		return -3
	case OpArrayLen, OpNewArray, OpGetField, OpUn, OpCast, OpGoto:
		return 0
	case OpNewTuple:
		return 1 - in.A
	case OpIntrin:
		return 1 - in.A
	case OpReturn:
		if retVoid {
			return 0
		}
		return -1
	}
	return 0
}
