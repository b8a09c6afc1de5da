package kdslgen

import "s2fa/internal/cir"

// Shrink delta-debugs the kernel against fails: it enumerates structural
// edits (drop a statement, unwrap a branch, halve a trip count, prune a
// subexpression), keeps the first edit that both reduces the kernel's
// weight and still fails, and repeats to a fixpoint. The result is a
// locally minimal kernel that still fails.
//
// fails must return true only for the failure being chased: shrunk
// candidates can be broken in unrelated ways (a dropped declaration
// leaves a dangling use, so the candidate no longer compiles), and the
// predicate must answer false for those, not error out.
// api:allow the soak suite minimizes each failing generated kernel with it
func (k *Kernel) Shrink(fails func(*Kernel) bool) *Kernel {
	cur := k.p
	curW := weight(cur)
	for {
		improved := false
		total := enumEdits(cur, -1)
		for e := 0; e < total; e++ {
			cand := cur.clone()
			enumEdits(cand, e)
			w := weight(cand)
			if w >= curW {
				continue
			}
			ck := newKernel(cand)
			ck.opt = k.opt
			if fails(ck) {
				cur, curW = cand, w
				improved = true
				break
			}
		}
		if !improved {
			out := newKernel(cur)
			out.opt = k.opt
			return out
		}
	}
}

// weight is the size metric shrinking minimizes: every statement and
// expression node counts 1, and counted loops additionally weigh their
// trip count so halving a trip is progress.
func weight(p *prog) int {
	w := 0
	var block func([]stmt)
	var ex func(expr)
	ex = func(e expr) {
		if e == nil {
			return
		}
		w++
		switch e := e.(type) {
		case *loadE:
			ex(e.Idx)
		case *binE:
			ex(e.L)
			ex(e.R)
		case *unE:
			ex(e.X)
		case *castE:
			ex(e.X)
		case *mathE:
			for _, a := range e.Args {
				ex(a)
			}
		}
	}
	block = func(b []stmt) {
		for _, s := range b {
			w++
			switch s := s.(type) {
			case *declS:
				ex(s.Init)
			case *assignS:
				ex(s.E)
			case *storeS:
				ex(s.Idx)
				ex(s.E)
			case *forS:
				w += s.Hi - s.Lo
				block(s.Body)
			case *whileS:
				ex(s.Extra)
				block(s.Body)
			case *ifS:
				ex(s.Cond)
				block(s.Then)
				block(s.Else)
			}
		}
	}
	block(p.Body)
	return w
}

// editState drives one walk over the tree: with target -1 it only counts
// edit sites; otherwise it applies edit number target in place.
type editState struct {
	target  int
	counter int
	applied bool
}

func (st *editState) hit() bool {
	idx := st.counter
	st.counter++
	if idx == st.target {
		st.applied = true
		return true
	}
	return false
}

// enumEdits counts the edit sites of p (target == -1) or applies edit
// number target, mutating p. The walk order is deterministic, and
// counting and applying walk identically, so edit indices are stable.
func enumEdits(p *prog, target int) int {
	st := &editState{target: target}
	editBlock(st, &p.Body, p.ResultVar)
	return st.counter
}

func editBlock(st *editState, b *[]stmt, resultVar string) {
	for i := 0; i < len(*b); i++ {
		if st.applied {
			return
		}
		s := (*b)[i]
		if !declares(s, resultVar) && st.hit() {
			*b = append((*b)[:i:i], (*b)[i+1:]...)
			return
		}
		editStmt(st, s, b, i, resultVar)
	}
}

// declares reports whether removing s would undefine the result
// variable — the one statement removal that can never shrink a valid
// failing kernel into another valid kernel.
func declares(s stmt, name string) bool {
	switch s := s.(type) {
	case *declS:
		return s.Name == name
	case *declArrS:
		return s.Name == name
	case *bindS:
		return s.Name == name
	case *assignS:
		// Keep the final write to the result var so scalar kernels stay
		// meaningful while their loops shrink away.
		return s.Name == name
	}
	return false
}

func editStmt(st *editState, s stmt, parent *[]stmt, i int, resultVar string) {
	switch s := s.(type) {
	case *declS:
		editExpr(st, &s.Init)
	case *assignS:
		editExpr(st, &s.E)
	case *storeS:
		editExpr(st, &s.Idx)
		if !st.applied {
			editExpr(st, &s.E)
		}
	case *forS:
		if s.Hi-s.Lo > 1 && st.hit() {
			s.Hi = s.Lo + (s.Hi-s.Lo)/2
			return
		}
		editBlock(st, &s.Body, resultVar)
	case *whileS:
		if s.Extra != nil && st.hit() {
			s.Extra = nil
			return
		}
		editBlock(st, &s.Body, resultVar)
	case *ifS:
		// Unwrap to either arm.
		if st.hit() {
			(*parent)[i] = &blockStmtShim{Body: s.Then}
			flatten(parent)
			return
		}
		if len(s.Else) > 0 && st.hit() {
			(*parent)[i] = &blockStmtShim{Body: s.Else}
			flatten(parent)
			return
		}
		editExpr(st, &s.Cond)
		if !st.applied {
			editBlock(st, &s.Then, resultVar)
		}
		if !st.applied {
			editBlock(st, &s.Else, resultVar)
		}
	}
}

// blockStmtShim splices a block into its parent; it only ever exists
// transiently inside enumEdits (flatten removes it before returning).
type blockStmtShim struct{ Body []stmt }

func (*blockStmtShim) isStmt() {}

func flatten(b *[]stmt) {
	out := make([]stmt, 0, len(*b))
	for _, s := range *b {
		if sh, ok := s.(*blockStmtShim); ok {
			out = append(out, sh.Body...)
			continue
		}
		out = append(out, s)
	}
	*b = out
}

func editExpr(st *editState, ep *expr) {
	if st.applied || *ep == nil {
		return
	}
	e := *ep
	// Replace the whole expression with a same-kind zero, unless it is
	// already a bare literal.
	switch e.(type) {
	case *intE, *floatE:
	default:
		if st.hit() {
			*ep = zeroOf(e.kind())
			return
		}
	}
	switch e := e.(type) {
	case *loadE:
		editExpr(st, &e.Idx)
	case *binE:
		if e.L.kind() == e.kind() && st.hit() {
			*ep = e.L
			return
		}
		if e.R.kind() == e.kind() && st.hit() {
			*ep = e.R
			return
		}
		editExpr(st, &e.L)
		if !st.applied {
			editExpr(st, &e.R)
		}
	case *unE:
		if e.X.kind() == e.kind() && st.hit() {
			*ep = e.X
			return
		}
		editExpr(st, &e.X)
	case *castE:
		if e.X.kind() == e.To && st.hit() {
			*ep = e.X
			return
		}
		editExpr(st, &e.X)
	case *mathE:
		for i := range e.Args {
			if e.Args[i].kind() == e.kind() && st.hit() {
				*ep = e.Args[i]
				return
			}
		}
		for i := range e.Args {
			if st.applied {
				return
			}
			editExpr(st, &e.Args[i])
		}
	}
}

// zeroOf builds a renderable zero of the given kind: plain literals for
// Int/Long/Double, a cast literal for kinds with no literal form.
func zeroOf(k cir.Kind) expr {
	switch k {
	case cir.Int:
		return iconst(0)
	case cir.Long:
		return &intE{K: cir.Long, V: 0}
	case cir.Double:
		return fconst(0)
	case cir.Bool:
		// No Bool zero literal in the mini-IR; use a trivially false
		// comparison.
		return bin(cir.Ne, iconst(0), iconst(0))
	default: // Char, Short, Float
		return &castE{To: k, X: iconst(0)}
	}
}
