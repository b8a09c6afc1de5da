package depend

import "s2fa/internal/cir"

// This file is the exported face of the affine subscript machinery. The
// dependence pair tests use it internally; the access-pattern analysis
// (internal/access) reuses it for stride classification and footprint
// spans rather than growing a second, subtly different decomposition.

// AffineForm is a multivariate affine decomposition of an index
// expression:
//
//	idx = sum(Ind[v] * v) + sum(Syms[s] * s) + Const
//
// where v ranges over the caller's induction variables and s over other
// scalars. OK=false means the expression is not affine under the
// decomposition rules (saturating arithmetic included), and no field may
// be trusted.
type AffineForm struct {
	Ind   map[string]int64
	Syms  map[string]int64
	Const int64
	OK    bool
}

// DecomposeAffine builds the affine form of an index expression. isInd
// classifies variable names as induction variables of the enclosing
// nest; every other name lands in Syms.
func DecomposeAffine(e cir.Expr, isInd func(string) bool) AffineForm {
	f := decompose(e, isInd)
	return AffineForm{Ind: f.ind, Syms: f.syms, Const: f.cst, OK: f.ok}
}

// LoopVarRange returns the compile-time value range of a counted loop's
// induction variable ([Lo, Hi-1]); ok reports whether both bounds are
// integer literals.
func LoopVarRange(l *cir.Loop) (lo, hi int64, ok bool) {
	r := loopRange(l)
	return r.lo, r.hi, r.hasLo && r.hasHi
}
