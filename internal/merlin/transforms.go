package merlin

import (
	"fmt"

	"s2fa/internal/cir"
	"s2fa/internal/depend"
)

// TileLoop splits the loop with the given ID into an outer tile loop
// (which keeps the original ID, so later directives still resolve) and an
// inner intra-tile loop with a derived ID:
//
//	for (v = lo; v < hi; v += s)            { body }
//	  =>
//	for (vt = lo; vt < hi; vt += s*t)
//	    for (v = vt; v < min(vt + s*t, hi); v += s) { body }
//
// The min() guard makes non-dividing tile factors safe.
func TileLoop(k *cir.Kernel, id string, t int) error {
	l := k.FindLoop(id)
	if l == nil {
		return fmt.Errorf("merlin: tile: loop %q not found: %w", id, ErrUnknownLoop)
	}
	if t < 2 {
		return fmt.Errorf("merlin: tile: factor %d must be >= 2: %w", t, ErrIllegalFactor)
	}
	tileVar := l.Var + "_t"
	bigStep := l.Step * int64(t)
	inner := &cir.Loop{
		ID:   id + ".tile",
		Var:  l.Var,
		Lo:   &cir.VarRef{K: cir.Int, Name: tileVar},
		Step: l.Step,
		Hi: &cir.Call{K: cir.Int, Name: "min", Args: []cir.Expr{
			&cir.Binary{K: cir.Int, Op: cir.Add,
				L: &cir.VarRef{K: cir.Int, Name: tileVar},
				R: &cir.IntLit{K: cir.Int, Val: bigStep}},
			cir.CloneExpr(l.Hi),
		}},
		Body:      l.Body,
		Reduction: l.Reduction,
		Opt:       cir.LoopOpt{Pipeline: l.Opt.Pipeline},
	}
	l.Var = tileVar
	l.Step = bigStep
	l.Body = cir.Block{inner}
	l.Opt = cir.LoopOpt{Parallel: l.Opt.Parallel, Tile: l.Opt.Tile}
	return nil
}

// UnrollLoop duplicates the loop body factor times per iteration,
// implementing the Merlin coarse-/fine-grained parallel directive. For
// additive reduction loops it materializes a tree reduction instead of a
// serial chain, matching the Merlin transformation library's behaviour.
// Remainder iterations are handled with guards, so any factor up to the
// trip count is legal.
func UnrollLoop(k *cir.Kernel, id string, factor int) error {
	l := k.FindLoop(id)
	if l == nil {
		return fmt.Errorf("merlin: parallel: loop %q not found: %w", id, ErrUnknownLoop)
	}
	if factor < 2 {
		return fmt.Errorf("merlin: parallel: factor %d must be >= 2: %w", factor, ErrIllegalFactor)
	}
	if acc, rhs, ok := depend.ReductionForm(l); ok {
		return unrollReduction(k, l, factor, acc, rhs)
	}
	return unrollPlain(l, factor)
}

func unrollPlain(l *cir.Loop, factor int) error {
	origStep := l.Step
	origBody := l.Body
	hi := l.Hi
	var body cir.Block
	for lane := 0; lane < factor; lane++ {
		copyBody := cir.RenameLocals(origBody, fmt.Sprintf("_u%d", lane))
		if lane > 0 {
			off := &cir.Binary{K: cir.Int, Op: cir.Add,
				L: &cir.VarRef{K: cir.Int, Name: l.Var},
				R: &cir.IntLit{K: cir.Int, Val: int64(lane) * origStep}}
			copyBody = cir.SubstVarBlock(copyBody, l.Var, off)
			guard := &cir.Binary{K: cir.Bool, Op: cir.Lt, L: cir.CloneExpr(off), R: cir.CloneExpr(hi)}
			body = append(body, &cir.If{Cond: guard, Then: copyBody})
		} else {
			body = append(body, copyBody...)
		}
	}
	l.Step = origStep * int64(factor)
	l.Body = body
	return nil
}

// unrollReduction materializes a tree reduction: the body is unrolled
// like plain unrolling (keeping every statement), but each lane's
// recurrence update targets a private partial accumulator; a balanced
// adder tree combines the partials after the loop.
func unrollReduction(k *cir.Kernel, l *cir.Loop, factor int, acc string, addend cir.Expr) error {
	_ = addend
	kind := cir.Void
	for _, s := range l.Body {
		if a, ok := s.(*cir.Assign); ok {
			if vr, ok := a.LHS.(*cir.VarRef); ok && vr.Name == acc {
				kind = vr.K
			}
		}
	}
	if kind == cir.Void {
		return unrollPlain(l, factor)
	}
	part := acc + "_tr_" + l.ID
	origStep := l.Step
	origBody := l.Body
	hi := l.Hi

	pre := cir.Block{&cir.ArrDecl{Name: part, Elem: kind, Len: factor}}
	zeroVar := "_z_" + l.ID
	pre = append(pre, &cir.Loop{
		ID: l.ID + ".trz", Var: zeroVar,
		Lo: &cir.IntLit{K: cir.Int, Val: 0}, Hi: &cir.IntLit{K: cir.Int, Val: int64(factor)},
		Step: 1,
		Body: cir.Block{&cir.Assign{
			LHS: &cir.Index{K: kind, Arr: part, Idx: &cir.VarRef{K: cir.Int, Name: zeroVar}},
			RHS: zeroOf(kind),
		}},
	})

	var body cir.Block
	for lane := 0; lane < factor; lane++ {
		copyBody := cir.RenameLocals(origBody, fmt.Sprintf("_u%d", lane))
		// Redirect the recurrence to the lane's partial accumulator.
		lanePart := func() cir.Expr {
			return &cir.Index{K: kind, Arr: part, Idx: &cir.IntLit{K: cir.Int, Val: int64(lane)}}
		}
		copyBody = redirectAccum(copyBody, acc, lanePart)
		if lane > 0 {
			off := &cir.Binary{K: cir.Int, Op: cir.Add,
				L: &cir.VarRef{K: cir.Int, Name: l.Var},
				R: &cir.IntLit{K: cir.Int, Val: int64(lane) * origStep}}
			copyBody = cir.SubstVarBlock(copyBody, l.Var, off)
			guard := &cir.Binary{K: cir.Bool, Op: cir.Lt, L: cir.CloneExpr(off), R: cir.CloneExpr(hi)}
			body = append(body, &cir.If{Cond: guard, Then: copyBody})
		} else {
			body = append(body, copyBody...)
		}
	}

	l.Step = origStep * int64(factor)
	l.Body = body

	// Balanced adder tree over the partials, folded into the original
	// accumulator.
	terms := make([]cir.Expr, factor)
	for i := 0; i < factor; i++ {
		terms[i] = &cir.Index{K: kind, Arr: part, Idx: &cir.IntLit{K: cir.Int, Val: int64(i)}}
	}
	tree := balancedSum(kind, terms)
	post := &cir.Assign{
		LHS: &cir.VarRef{K: kind, Name: acc},
		RHS: &cir.Binary{K: kind, Op: cir.Add, L: &cir.VarRef{K: kind, Name: acc}, R: tree},
	}

	loopCopy := *l
	if !replaceLoop(k, l.ID, append(append(cir.Block{}, pre...), &loopCopy, post)) {
		return fmt.Errorf("merlin: tree reduction: loop %q not found for splice", l.ID)
	}
	return nil
}

// redirectAccum rewrites `acc = acc + e` statements (at any nesting depth)
// so both sides use the provided element expression instead of acc.
func redirectAccum(b cir.Block, acc string, elem func() cir.Expr) cir.Block {
	out := make(cir.Block, 0, len(b))
	for _, s := range b {
		switch s := s.(type) {
		case *cir.Assign:
			if vr, ok := s.LHS.(*cir.VarRef); ok && vr.Name == acc {
				out = append(out, &cir.Assign{
					LHS: elem(),
					RHS: cir.SubstVar(s.RHS, acc, elem()),
				})
				continue
			}
			out = append(out, s)
		case *cir.If:
			out = append(out, &cir.If{
				Cond: s.Cond,
				Then: redirectAccum(s.Then, acc, elem),
				Else: redirectAccum(s.Else, acc, elem),
			})
		case *cir.Loop:
			s.Body = redirectAccum(s.Body, acc, elem)
			out = append(out, s)
		case *cir.While:
			s.Body = redirectAccum(s.Body, acc, elem)
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}

func balancedSum(kind cir.Kind, terms []cir.Expr) cir.Expr {
	if len(terms) == 1 {
		return terms[0]
	}
	mid := len(terms) / 2
	return &cir.Binary{K: kind, Op: cir.Add,
		L: balancedSum(kind, terms[:mid]),
		R: balancedSum(kind, terms[mid:])}
}

func zeroOf(kind cir.Kind) cir.Expr {
	if kind.IsFloat() {
		return &cir.FloatLit{K: kind, Val: 0}
	}
	return &cir.IntLit{K: kind, Val: 0}
}

// FlattenLoop implements the Merlin "pipeline flatten" transformation: it
// fully unrolls every sub-loop of the target loop so the whole nest
// becomes a single fine-grained pipelined body (paper §4.1). Sub-loops
// must have constant trip counts; otherwise the design point is
// infeasible.
func FlattenLoop(k *cir.Kernel, id string) error {
	l := k.FindLoop(id)
	if l == nil {
		return fmt.Errorf("merlin: flatten: loop %q not found: %w", id, ErrUnknownLoop)
	}
	body, err := fullyUnrollBlock(l.Body)
	if err != nil {
		return fmt.Errorf("merlin: flatten %s: %w", id, err)
	}
	l.Body = body
	if l.Opt.Pipeline == cir.PipeFlatten {
		l.Opt.Pipeline = cir.PipeOn
	}
	return nil
}

func fullyUnrollBlock(b cir.Block) (cir.Block, error) {
	var out cir.Block
	for _, s := range b {
		switch s := s.(type) {
		case *cir.Loop:
			sub, err := fullyUnrollBlock(s.Body)
			if err != nil {
				return nil, err
			}
			lo, okLo := s.Lo.(*cir.IntLit)
			hi, okHi := s.Hi.(*cir.IntLit)
			if !okLo || !okHi {
				return nil, fmt.Errorf("sub-loop %s has non-constant bounds: %w", s.ID, ErrNonConstantTrip)
			}
			iter := 0
			for v := lo.Val; v < hi.Val; v += s.Step {
				cp := cir.RenameLocals(sub, fmt.Sprintf("_f%d", iter))
				cp = cir.SubstVarBlock(cp, s.Var, &cir.IntLit{K: cir.Int, Val: v})
				out = append(out, cp...)
				iter++
			}
		case *cir.If:
			thenB, err := fullyUnrollBlock(s.Then)
			if err != nil {
				return nil, err
			}
			elseB, err := fullyUnrollBlock(s.Else)
			if err != nil {
				return nil, err
			}
			out = append(out, &cir.If{Cond: cir.CloneExpr(s.Cond), Then: thenB, Else: elseB})
		case *cir.While:
			return nil, fmt.Errorf("sub-region is a variable-trip while loop: %w", ErrNonConstantTrip)
		default:
			out = append(out, cir.CloneStmt(s))
		}
	}
	return out, nil
}
