package cir

// OpCount tallies the operations in a region of code, bucketed the way the
// HLS resource/latency model consumes them.
type OpCount struct {
	IntAdd int // integer add/sub/logic/shift/compare
	IntMul int
	IntDiv int
	FpAdd  int // floating add/sub/compare
	FpMul  int
	FpDiv  int
	Transc int // transcendental intrinsics (exp, log, pow, sqrt)
	Select int // ternaries and if-conversion candidates
	Loads  int // array element reads
	Stores int // array element writes
}

// Add accumulates o2 into o.
func (o *OpCount) Add(o2 OpCount) {
	o.IntAdd += o2.IntAdd
	o.IntMul += o2.IntMul
	o.IntDiv += o2.IntDiv
	o.FpAdd += o2.FpAdd
	o.FpMul += o2.FpMul
	o.FpDiv += o2.FpDiv
	o.Transc += o2.Transc
	o.Select += o2.Select
	o.Loads += o2.Loads
	o.Stores += o2.Stores
}

// Scale multiplies all counts by n (used when unrolling).
func (o *OpCount) Scale(n int) {
	o.IntAdd *= n
	o.IntMul *= n
	o.IntDiv *= n
	o.FpAdd *= n
	o.FpMul *= n
	o.FpDiv *= n
	o.Transc *= n
	o.Select *= n
	o.Loads *= n
	o.Stores *= n
}

// Total returns the total operation count.
func (o OpCount) Total() int {
	return o.IntAdd + o.IntMul + o.IntDiv + o.FpAdd + o.FpMul + o.FpDiv + o.Transc + o.Select + o.Loads + o.Stores
}

// LoopInfo is one node of the loop-nest tree.
type LoopInfo struct {
	Loop     *Loop
	Parent   *LoopInfo
	Children []*LoopInfo
	Depth    int   // 0 for outermost (task) loop
	Trip     int64 // constant trip count, 0 if unknown

	// BodyOps counts operations in the direct body, excluding nested
	// loops (their costs live in their own nodes).
	BodyOps OpCount
	// SubtreeOps counts operations across the entire subtree body,
	// weighted by nothing (static counts).
	SubtreeOps OpCount

	// ScalarRec lists iteration-crossing scalar recurrences (e.g.
	// accumulators) carried by this loop.
	ScalarRec []string
	// RecOps counts the operations on the recurrence cycle(s): the RHS
	// work of recurrence assignments. Determines the recurrence-limited
	// initiation interval.
	RecOps OpCount
	// HasTranscendental reports a transcendental call anywhere in the
	// subtree body.
	HasTranscendental bool
	// HasWhile reports a general while loop anywhere in the subtree: a
	// variable-trip region that no unroller (pipeline flatten, full
	// unroll) can eliminate.
	HasWhile bool
}

// KernelInfo is the full analysis result for one kernel.
type KernelInfo struct {
	Kernel *Kernel
	Roots  []*LoopInfo
	All    []*LoopInfo // preorder
	ByID   map[string]*LoopInfo
	// TopOps counts statements outside any loop.
	TopOps OpCount
	// LocalArrays maps local array name to its byte size (on-chip BRAM
	// candidates).
	LocalArrays map[string]int
	MaxDepth    int
}

// Analyze builds the loop-nest tree for k: trip counts, operation counts
// and scalar recurrences. It is the structural half of the kernel AST
// analysis S2FA performs with the ROSE compiler infrastructure (paper
// §4.1); array dependences come from the polyhedral-style analysis in
// internal/depend.
func Analyze(k *Kernel) *KernelInfo {
	info := &KernelInfo{
		Kernel:      k,
		ByID:        map[string]*LoopInfo{},
		LocalArrays: map[string]int{},
	}
	declared := map[string]bool{}
	info.TopOps = analyzeBlock(k.Body, nil, info, declared)
	for _, li := range info.All {
		if li.Depth > info.MaxDepth {
			info.MaxDepth = li.Depth
		}
	}
	for _, r := range info.Roots {
		finishLoop(r)
	}
	return info
}

// analyzeBlock walks a block attributing costs to the enclosing loop node
// (cur may be nil for top level). declared tracks scalars declared within
// the current loop body (iteration-local, thus not recurrences).
func analyzeBlock(b Block, cur *LoopInfo, info *KernelInfo, declared map[string]bool) OpCount {
	var ops OpCount
	for _, s := range b {
		switch s := s.(type) {
		case *Decl:
			declared[s.Name] = true
			if s.Init != nil {
				ops.Add(countExpr(s.Init, cur, info))
			}
		case *ArrDecl:
			info.LocalArrays[s.Name] = s.Len * s.Elem.Bits() / 8
		case *Assign:
			ops.Add(countExpr(s.RHS, cur, info))
			switch lhs := s.LHS.(type) {
			case *VarRef:
				if cur != nil && !declared[lhs.Name] && exprMentionsVar(s.RHS, lhs.Name) {
					// Loop-carried scalar recurrence: target declared
					// outside this loop and used in its own update.
					addRecurrence(cur, lhs.Name, s.RHS, info)
				}
			case *Index:
				ops.Add(countExpr(lhs.Idx, cur, info))
				ops.Stores++
			}
		case *If:
			ops.Add(countExpr(s.Cond, cur, info))
			ops.Add(analyzeBlock(s.Then, cur, info, declared))
			ops.Add(analyzeBlock(s.Else, cur, info, declared))
		case *Loop:
			li := &LoopInfo{
				Loop:   s,
				Parent: cur,
				Trip:   s.TripCount(),
			}
			if cur != nil {
				li.Depth = cur.Depth + 1
				cur.Children = append(cur.Children, li)
			} else {
				info.Roots = append(info.Roots, li)
			}
			info.All = append(info.All, li)
			info.ByID[s.ID] = li
			childDecl := map[string]bool{s.Var: true}
			li.BodyOps = analyzeBlock(s.Body, li, info, childDecl)
			// Loop bound/step bookkeeping counts as one int add + one
			// compare per iteration.
			li.BodyOps.IntAdd += 2
		case *While:
			// Treated as an opaque sequential region charged to the
			// enclosing loop.
			if cur != nil {
				cur.HasWhile = true
			}
			ops.Add(countExpr(s.Cond, cur, info))
			ops.Add(analyzeBlock(s.Body, cur, info, declared))
		case *Return:
			if s.Val != nil {
				ops.Add(countExpr(s.Val, cur, info))
			}
		}
	}
	return ops
}

// finishLoop aggregates subtree quantities once all children are known.
func finishLoop(li *LoopInfo) {
	li.SubtreeOps = li.BodyOps
	for _, c := range li.Children {
		finishLoop(c)
		li.SubtreeOps.Add(c.SubtreeOps)
		if c.HasTranscendental {
			li.HasTranscendental = true
		}
		if c.HasWhile {
			li.HasWhile = true
		}
	}
}

func addRecurrence(li *LoopInfo, name string, rhs Expr, info *KernelInfo) {
	for _, r := range li.ScalarRec {
		if r == name {
			return
		}
	}
	li.ScalarRec = append(li.ScalarRec, name)
	li.RecOps.Add(countExpr(rhs, nil, info))
}

func countExpr(e Expr, cur *LoopInfo, info *KernelInfo) OpCount {
	var ops OpCount
	switch e := e.(type) {
	case nil, *IntLit, *FloatLit, *VarRef:
	case *Index:
		ops.Add(countExpr(e.Idx, cur, info))
		ops.Loads++
	case *Unary:
		ops.Add(countExpr(e.X, cur, info))
		if e.X.Kind().IsFloat() && e.Op == Neg {
			ops.FpAdd++
		} else {
			ops.IntAdd++
		}
	case *Binary:
		ops.Add(countExpr(e.L, cur, info))
		ops.Add(countExpr(e.R, cur, info))
		fp := e.L.Kind().IsFloat() || e.R.Kind().IsFloat()
		switch e.Op {
		case Mul:
			switch {
			case fp:
				ops.FpMul++
			case isConstOperand(e):
				// Multiplication by a compile-time constant lowers to
				// shift-add logic, not DSP multipliers.
				ops.IntAdd++
			default:
				ops.IntMul++
			}
		case Div, Rem:
			if fp {
				ops.FpDiv++
			} else {
				ops.IntDiv++
			}
		default:
			if fp {
				ops.FpAdd++
			} else {
				ops.IntAdd++
			}
		}
	case *Cast:
		ops.Add(countExpr(e.X, cur, info))
		if e.To.IsFloat() != e.X.Kind().IsFloat() {
			ops.IntAdd++ // int<->float converter
		}
	case *Cond:
		ops.Add(countExpr(e.C, cur, info))
		ops.Add(countExpr(e.T, cur, info))
		ops.Add(countExpr(e.F, cur, info))
		ops.Select++
	case *Call:
		for _, a := range e.Args {
			ops.Add(countExpr(a, cur, info))
		}
		switch e.Name {
		case "exp", "log", "pow", "sqrt":
			ops.Transc++
			if cur != nil {
				cur.HasTranscendental = true
			}
		case "min", "max", "abs", "fabs", "floor":
			ops.Select++
		}
	}
	return ops
}

// isConstOperand reports whether either operand of a binary op is an
// integer literal.
func isConstOperand(e *Binary) bool {
	if _, ok := e.L.(*IntLit); ok {
		return true
	}
	_, ok := e.R.(*IntLit)
	return ok
}

func exprMentionsVar(e Expr, name string) bool {
	switch e := e.(type) {
	case nil, *IntLit, *FloatLit:
		return false
	case *VarRef:
		return e.Name == name
	case *Index:
		return exprMentionsVar(e.Idx, name)
	case *Unary:
		return exprMentionsVar(e.X, name)
	case *Binary:
		return exprMentionsVar(e.L, name) || exprMentionsVar(e.R, name)
	case *Cast:
		return exprMentionsVar(e.X, name)
	case *Cond:
		return exprMentionsVar(e.C, name) || exprMentionsVar(e.T, name) || exprMentionsVar(e.F, name)
	case *Call:
		for _, a := range e.Args {
			if exprMentionsVar(a, name) {
				return true
			}
		}
	}
	return false
}
