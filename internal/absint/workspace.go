package absint

import "s2fa/internal/compile"

// workspace is the abstract interpreter's reusable state: a freelist of
// state objects plus the operand-stack and local-version buffers
// simBlock reuses call after call. The fixpoint alone re-simulates
// blocks hundreds of times per method; workspaces pools them across
// methods and classes, so steady-state analysis stops allocating states
// at all.
type workspace struct {
	free []*state
	stk  []absVal
	vers []int
}

var workspaces = compile.NewPool[workspace]()

// newState hands out a state with n locals, recycling released ones.
func (a *analyzer) newState(n int) *state {
	if l := len(a.ws.free); l > 0 {
		st := a.ws.free[l-1]
		a.ws.free = a.ws.free[:l-1]
		if cap(st.locals) >= n {
			st.locals = st.locals[:n]
			return st
		}
	}
	return &state{locals: make([]absVal, n)}
}

// cloneOf is state.clone via the freelist.
func (a *analyzer) cloneOf(s *state) *state {
	out := a.newState(len(s.locals))
	copy(out.locals, s.locals)
	return out
}

// release returns a state to the freelist. The caller promises it holds
// no other reference to st (in particular, st is not in a.in).
func (a *analyzer) release(st *state) {
	if st != nil {
		a.ws.free = append(a.ws.free, st)
	}
}
