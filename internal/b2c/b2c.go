package b2c

import (
	"fmt"
	"strings"

	"s2fa/internal/absint"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/lint"
	"s2fa/internal/obs"
)

// Compile translates a kernel class to a complete HLS-C kernel: the
// decompiled call method (with composite types flattened), wrapped in the
// RDD-pattern task-loop template, with the optional reduce combiner
// inlined. The result is functionally equivalent to the JVM semantics of
// the class — a property the test suite checks by differential execution.
func Compile(cls *bytecode.Class) (*cir.Kernel, error) {
	return CompileTraced(cls, nil)
}

// CompileTraced is Compile with pipeline tracing: the bytecode verifier,
// the abstract interpreter (with per-method fixpoint iteration/widening
// counts), and the lint gate each get a span under the b2c compile span.
// A nil trace is free.
func CompileTraced(cls *bytecode.Class, tr *obs.Trace) (*cir.Kernel, error) {
	outer := tr.Begin("b2c", "compile", obs.Str("class", cls.Name))
	defer outer.End()

	vs := tr.Begin("bytecode", "verify")
	err := bytecode.VerifyClass(cls)
	vs.End(obs.Bool("ok", err == nil))
	if err != nil {
		return nil, err
	}
	// Abstract interpretation supplies value-range and extent facts the
	// syntactic pipeline below cannot see: per-store constants fold into
	// literals (constant trip counts), output array extents resolve when
	// the dataflow is too indirect for arrayLenIn, and every interface
	// buffer is annotated with the proven range of values it carries
	// (seeding cir bit-width inference and the design-space restriction).
	// The class just verified, so analysis cannot fail; a nil facts value
	// simply disables the extra precision.
	as := tr.Begin("absint", "analyze")
	facts, err := absint.AnalyzeClass(cls)
	if err != nil {
		facts = nil
	}
	as.End(obs.Bool("ok", facts != nil))
	if tr.Enabled() && facts != nil {
		emitFixpoint(tr, "call", facts.Call)
		emitFixpoint(tr, "reduce", facts.Reduce)
	}
	return compileVerified(cls, facts, tr)
}

// CompileVerified compiles a class that is already verified and analyzed,
// skipping the verifier and abstract-interpretation stages: the compile
// cache's miss path, which computes the absint facts while fingerprinting
// and must not pay for them twice.
func CompileVerified(cls *bytecode.Class, facts *absint.ClassFacts, tr *obs.Trace) (*cir.Kernel, error) {
	outer := tr.Begin("b2c", "compile", obs.Str("class", cls.Name))
	defer outer.End()
	return compileVerified(cls, facts, tr)
}

func compileVerified(cls *bytecode.Class, facts *absint.ClassFacts, tr *obs.Trace) (*cir.Kernel, error) {
	callFacts := methodFacts(facts, cls.Call)
	callBody, callLift, err := decompile(cls, cls.Call, callFacts)
	if err != nil {
		return nil, err
	}

	k := &cir.Kernel{
		Name:       sanitizeName(cls.ID),
		Pattern:    cls.Pattern(),
		TaskLoopID: "L0",
	}
	for _, s := range cls.Statics {
		if s.Type.Array {
			k.Globals = append(k.Globals, cir.Global{Name: s.Name, Elem: s.Type.Kind, Data: s.Data})
		}
	}

	f := &flattener{cls: cls, kernel: k, facts: facts}
	if err := f.buildParams(callLift); err != nil {
		return nil, err
	}
	taskBody, err := f.rewriteCallBody(callBody)
	if err != nil {
		return nil, err
	}

	if cls.Reduce != nil {
		redStmts, err := f.inlineReduce(cls)
		if err != nil {
			return nil, err
		}
		taskBody = append(taskBody, redStmts...)
	}

	taskBody = f.indexByTask(taskBody)
	task := &cir.Loop{
		ID:   "L0",
		Var:  taskVar,
		Lo:   &cir.IntLit{K: cir.Int, Val: 0},
		Hi:   &cir.VarRef{K: cir.Int, Name: "N"},
		Step: 1,
		Body: taskBody,
	}
	k.Body = cir.Block{task}
	assignLoopIDs(k)

	// Static verification gate: a lint error on a freshly generated kernel
	// (undeclared variable, provable out-of-bounds subscript, broken
	// structural invariant) is a compiler bug, not a user error — fail the
	// compilation instead of shipping C that the differential tests would
	// only catch dynamically. Warnings (zero-default reads etc.) pass.
	ls := tr.Begin("lint", "gate")
	errs := lint.Lint(k).Errors()
	ls.End(obs.Int("errors", len(errs)))
	if len(errs) > 0 {
		return nil, fmt.Errorf("b2c: generated kernel %s fails static verification:\n%s", k.Name, errs)
	}
	return k, nil
}

// emitFixpoint reports one method's abstract-interpretation work.
func emitFixpoint(tr *obs.Trace, which string, mf *absint.MethodFacts) {
	if mf == nil {
		return
	}
	fp := mf.Fixpoint
	tr.Event("absint", "fixpoint",
		obs.Str("method", which),
		obs.Int("iterations", fp.Iterations),
		obs.Int("joins", fp.Joins),
		obs.Int("widenings", fp.Widenings),
		obs.Int("array_widenings", fp.ArrayWidenings))
}

// taskVar is the compiler-inserted task-loop induction variable (the `i`
// of Code 3).
const taskVar = "_task"

// methodFacts selects the per-method fact set for m, nil-safe.
func methodFacts(cf *absint.ClassFacts, m *bytecode.Method) *absint.MethodFacts {
	if cf == nil {
		return nil
	}
	if cf.Reduce != nil && cf.Reduce.Method == m {
		return cf.Reduce
	}
	if cf.Call != nil && cf.Call.Method == m {
		return cf.Call
	}
	return nil
}

// decompile runs the CFG/lift/structure pipeline for one method and
// returns its structured body (with counted loops recovered and scalar
// locals declared). When facts is non-nil, stores whose abstract value is
// a proven constant lift as integer literals, so downstream trip-count
// and bounds analyses see constants the syntax alone would hide.
func decompile(cls *bytecode.Class, m *bytecode.Method, facts *absint.MethodFacts) (cir.Block, *lifter, error) {
	g, err := buildCFG(m)
	if err != nil {
		return nil, nil, err
	}
	lf := newLifter(cls, m, g)
	lf.facts = facts
	if err := lf.liftAll(); err != nil {
		return nil, nil, err
	}
	body, err := structureMethod(g, lf.blocks)
	if err != nil {
		return nil, nil, err
	}
	body = recoverCountedLoops(body)

	// Declare scalar locals ahead of first use (JVM locals are
	// method-scoped). Loop induction variables recovered above are
	// declared by their loops.
	loopVars := map[string]bool{}
	collectLoopVars(body, loopVars)
	var decls cir.Block
	for _, slot := range lf.declared {
		name := lf.localName(slot)
		if loopVars[name] && refsOutsideLoopVar(body, name) == 0 {
			continue
		}
		decls = append(decls, &cir.Decl{Name: name, K: m.LocalTypes[slot].Kind})
	}
	return append(decls, body...), lf, nil
}

func collectLoopVars(b cir.Block, out map[string]bool) {
	for _, s := range b {
		switch s := s.(type) {
		case *cir.Loop:
			out[s.Var] = true
			collectLoopVars(s.Body, out)
		case *cir.If:
			collectLoopVars(s.Then, out)
			collectLoopVars(s.Else, out)
		case *cir.While:
			collectLoopVars(s.Body, out)
		}
	}
}

// refsOutsideLoopVar counts references to name that are not covered by a
// loop declaring it as its induction variable.
func refsOutsideLoopVar(b cir.Block, name string) int {
	n := 0
	var walkExpr func(e cir.Expr)
	walkExpr = func(e cir.Expr) {
		switch e := e.(type) {
		case *cir.VarRef:
			if e.Name == name {
				n++
			}
		case *cir.Index:
			walkExpr(e.Idx)
		case *cir.Unary:
			walkExpr(e.X)
		case *cir.Binary:
			walkExpr(e.L)
			walkExpr(e.R)
		case *cir.Cast:
			walkExpr(e.X)
		case *cir.Cond:
			walkExpr(e.C)
			walkExpr(e.T)
			walkExpr(e.F)
		case *cir.Call:
			for _, a := range e.Args {
				walkExpr(a)
			}
		}
	}
	var walk func(b cir.Block)
	walk = func(b cir.Block) {
		for _, s := range b {
			switch s := s.(type) {
			case *cir.Decl:
				walkExpr(s.Init)
			case *cir.Assign:
				walkExpr(s.LHS)
				walkExpr(s.RHS)
			case *cir.If:
				walkExpr(s.Cond)
				walk(s.Then)
				walk(s.Else)
			case *cir.Loop:
				if s.Var == name {
					continue // fully scoped by this loop
				}
				walkExpr(s.Lo)
				walkExpr(s.Hi)
				walk(s.Body)
			case *cir.While:
				walkExpr(s.Cond)
				walk(s.Body)
			case *cir.Return:
				walkExpr(s.Val)
			}
		}
	}
	walk(b)
	return n
}

// recoverCountedLoops rewrites the canonical decompiled pattern
//
//	i = lo; while (i < hi) { body...; i = i + step }
//
// into a canonical counted Loop so the design-space machinery sees trip
// counts. Applied recursively.
func recoverCountedLoops(b cir.Block) cir.Block {
	var out cir.Block
	for i := 0; i < len(b); i++ {
		s := b[i]
		switch s := s.(type) {
		case *cir.If:
			out = append(out, &cir.If{
				Cond: s.Cond,
				Then: recoverCountedLoops(s.Then),
				Else: recoverCountedLoops(s.Else),
			})
			continue
		case *cir.While:
			s.Body = recoverCountedLoops(s.Body)
			// Try to pair with a preceding induction initializer.
			if len(out) > 0 {
				if loop, ok := matchCountedLoop(out[len(out)-1], s); ok {
					out[len(out)-1] = loop
					continue
				}
			}
			out = append(out, s)
			continue
		case *cir.Loop:
			s.Body = recoverCountedLoops(s.Body)
		}
		out = append(out, s)
	}
	return out
}

// matchCountedLoop recognizes init+while as a counted loop.
func matchCountedLoop(init cir.Stmt, w *cir.While) (*cir.Loop, bool) {
	asn, ok := init.(*cir.Assign)
	if !ok {
		return nil, false
	}
	iv, ok := asn.LHS.(*cir.VarRef)
	if !ok {
		return nil, false
	}
	cond, ok := w.Cond.(*cir.Binary)
	if !ok || (cond.Op != cir.Lt && cond.Op != cir.Le) {
		return nil, false
	}
	cl, ok := cond.L.(*cir.VarRef)
	if !ok || cl.Name != iv.Name {
		return nil, false
	}
	if len(w.Body) == 0 {
		return nil, false
	}
	last, ok := w.Body[len(w.Body)-1].(*cir.Assign)
	if !ok {
		return nil, false
	}
	lv, ok := last.LHS.(*cir.VarRef)
	if !ok || lv.Name != iv.Name {
		return nil, false
	}
	inc, ok := last.RHS.(*cir.Binary)
	if !ok || inc.Op != cir.Add {
		return nil, false
	}
	incL, okL := inc.L.(*cir.VarRef)
	step, okR := inc.R.(*cir.IntLit)
	if !okL || !okR || incL.Name != iv.Name || step.Val <= 0 {
		return nil, false
	}
	body := w.Body[:len(w.Body)-1]
	// The induction variable must not be written elsewhere in the body.
	if writesVar(body, iv.Name) {
		return nil, false
	}
	// No breaks/continues may bind to this loop.
	if containsBreak(body) {
		return nil, false
	}
	hi := cond.R
	if cond.Op == cir.Le {
		hi = &cir.Binary{K: cir.Int, Op: cir.Add, L: hi, R: &cir.IntLit{K: cir.Int, Val: 1}}
		hi = foldConst(hi)
	}
	return &cir.Loop{
		Var:  iv.Name,
		Lo:   asn.RHS,
		Hi:   hi,
		Step: step.Val,
		Body: body,
	}, true
}

func writesVar(b cir.Block, name string) bool {
	for _, s := range b {
		switch s := s.(type) {
		case *cir.Assign:
			if vr, ok := s.LHS.(*cir.VarRef); ok && vr.Name == name {
				return true
			}
		case *cir.If:
			if writesVar(s.Then, name) || writesVar(s.Else, name) {
				return true
			}
		case *cir.Loop:
			if s.Var == name || writesVar(s.Body, name) {
				return true
			}
		case *cir.While:
			if writesVar(s.Body, name) {
				return true
			}
		}
	}
	return false
}

// foldConst folds integer-literal arithmetic (used for `to` bounds).
func foldConst(e cir.Expr) cir.Expr {
	bin, ok := e.(*cir.Binary)
	if !ok {
		return e
	}
	l, okL := bin.L.(*cir.IntLit)
	r, okR := bin.R.(*cir.IntLit)
	if !okL || !okR {
		return e
	}
	v, err := cir.EvalBinary(bin.Op, bin.K, cir.IntVal(l.K, l.Val), cir.IntVal(r.K, r.Val))
	if err != nil || v.K.IsFloat() {
		return e
	}
	return &cir.IntLit{K: bin.K, Val: v.I}
}

// assignLoopIDs numbers loops in preorder: L0 (task loop), L1, L2, ...
func assignLoopIDs(k *cir.Kernel) {
	n := 0
	var walk func(b cir.Block)
	walk = func(b cir.Block) {
		for _, s := range b {
			switch s := s.(type) {
			case *cir.Loop:
				s.ID = fmt.Sprintf("L%d", n)
				n++
				walk(s.Body)
			case *cir.If:
				walk(s.Then)
				walk(s.Else)
			case *cir.While:
				walk(s.Body)
			}
		}
	}
	walk(k.Body)
}

func sanitizeName(id string) string {
	var b strings.Builder
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	if b.Len() == 0 {
		return "kernel"
	}
	return b.String()
}
