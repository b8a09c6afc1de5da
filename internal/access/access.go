// Package access implements the static memory-access-pattern analysis
// over the HLS-C IR. Every array access site is classified, per
// enclosing counted loop, as burst (unit stride), strided (constant
// stride != 1), gather/scatter (the subscript depends on loaded data),
// or unknown; per-loop footprints and reuse verdicts follow from the
// affine extents.
//
// The contract is one-sided, mirroring internal/depend: the analysis
// may always demote an access to a weaker class (unknown is never
// wrong), but an affine claim — burst, strided, or invariant, with its
// coefficient — must hold on every dynamic execution. The claim for a
// site S with respect to an enclosing loop L is:
//
//	addr(S) = Coeff * value(L.Var) + r
//
// where r stays fixed while every other enclosing induction variable
// stays fixed. The jvmsim trace property in internal/apps enforces
// exactly this over all workloads.
//
// Consumers: the HLS estimator's DDR model (burst staging vs
// per-element gather cost, BRAM port caps on lane replication), DSE
// access-based pruning, the lint gather advisory, and `s2fa -explain`.
package access

import (
	"sort"

	"s2fa/internal/cir"
	"s2fa/internal/depend"
)

// Class orders access patterns from weakest knowledge to strongest.
// Lower is weaker: aggregations take the minimum.
type Class uint8

// Access classes.
const (
	// Unknown: the subscript is not an affine function of the enclosing
	// induction variables (or mixes in a mutated scalar). No claim.
	Unknown Class = iota
	// Gather: the subscript transitively depends on loaded data
	// (indirect addressing). No static address progression exists and
	// off-chip burst inference is impossible.
	Gather
	// Strided: constant nonzero address delta per iteration, != 1.
	Strided
	// Burst: address delta per iteration is exactly +1 — the access
	// streams contiguously and an AXI burst engine can service it.
	Burst
	// Invariant: the address does not move with this loop at all; the
	// element is hoistable into a register.
	Invariant
)

func (c Class) String() string {
	switch c {
	case Gather:
		return "gather"
	case Strided:
		return "strided"
	case Burst:
		return "burst"
	case Invariant:
		return "invariant"
	}
	return "unknown"
}

// Affine reports whether the class carries a provable per-iteration
// address progression (and therefore a coefficient the trace property
// must find consistent).
func (c Class) Affine() bool { return c >= Strided }

// ArrayKind distinguishes the three storage classes an Index can name.
type ArrayKind uint8

// Array storage classes.
const (
	ArrParam  ArrayKind = iota // kernel interface buffer (off-chip)
	ArrLocal                   // on-chip static array
	ArrGlobal                  // read-only constant table
)

func (k ArrayKind) String() string {
	switch k {
	case ArrLocal:
		return "local"
	case ArrGlobal:
		return "global"
	}
	return "param"
}

// Claim is the per-(site, loop) verdict. Coeff is the subscript delta
// per unit change of the loop variable; Stride is the delta per loop
// iteration (Coeff * Step). Both are meaningful only when Class.Affine()
// or Class == Invariant (then both are zero).
type Claim struct {
	Class  Class
	Coeff  int64
	Stride int64
}

// Site is one static array access (an *cir.Index occurrence).
type Site struct {
	Array string
	Kind  ArrayKind
	Write bool
	Pos   cir.Pos
	Idx   cir.Expr
	// Chain lists the enclosing counted loops, outermost first. While
	// loops do not appear (they take no directives and have no induction
	// variable); WhileDepth counts them instead.
	Chain      []string
	InnerLoop  string // innermost enclosing counted loop ID, "" if none
	WhileDepth int
	// DataDep marks the subscript as transitively dependent on loaded
	// data (the gather condition).
	DataDep bool
	// AffineOK reports that the subscript decomposed to an affine form
	// of the induction variables with no data dependence.
	AffineOK bool
	// Claims maps each enclosing loop ID to the per-loop claim.
	Claims map[string]Claim

	form    depend.AffineForm
	chainLs []*cir.Loop
	perTask int64 // statically estimated executions per task
}

// Class is the site's headline classification: its claim with respect
// to the innermost enclosing counted loop.
func (s *Site) Class() Class {
	if s.DataDep {
		return Gather
	}
	if !s.AffineOK {
		return Unknown
	}
	if s.InnerLoop == "" {
		return Invariant
	}
	return s.Claims[s.InnerLoop].Class
}

// LoopArray summarizes every access to one array inside one loop's
// subtree.
type LoopArray struct {
	Array string
	Kind  ArrayKind
	// Worst is the weakest claim class among the subtree's sites with
	// respect to this loop.
	Worst Class
	// MaxStride is the largest |stride| among the affine claims.
	MaxStride int64
	// Footprint is the element span the loop's full execution can touch,
	// clamped to the array extent. Valid only when FootprintKnown; an
	// unknown footprint means the whole array must be assumed live.
	Footprint      int64
	FootprintKnown bool
	// Reuse is the verdict for on-chip buffering: "stream" (all burst —
	// each element used in one iteration, a FIFO suffices), "reused"
	// (all invariant — registers suffice), or "mixed".
	Reuse string
	// Sites are the subtree's accesses to this array, program order.
	Sites []*Site
}

// ParamProfile drives the HLS DDR model for one interface buffer.
type ParamProfile struct {
	Name string
	// Stageable: at least one subscript is a provable affine function of
	// the loop nest, so Merlin's burst inference can hoist a staging
	// buffer and stream the transfer. When false (every access is a
	// gather or affine-opaque), the buffer pays per-element DDR latency.
	Stageable bool
	// StageElems is the per-task element span a staging transfer must
	// cover (<= the param's per-task Length; equal when the span cannot
	// be bounded more tightly).
	StageElems int64
	// Accesses statically estimates the dynamic subscripted accesses per
	// task (trip products; unknown trips count 16, matching the
	// scheduler's nominal).
	Accesses int64
	// Worst is the weakest site classification on this param, and
	// WorstSite the first site carrying it (diagnostics).
	Worst     Class
	WorstSite *Site
}

// Analysis is the kernel-wide result.
type Analysis struct {
	Kernel *cir.Kernel
	// Sites lists every array access in program order.
	Sites []*Site
	// Loops maps loop ID -> per-array summaries, sorted by array name.
	Loops map[string][]*LoopArray
	// LoopOrder lists counted-loop IDs in preorder.
	LoopOrder []string
	// Params holds DDR profiles for the array params, in param order.
	Params []ParamProfile

	caps map[string]int
}

// portBudget is the element-port budget of a fully banked on-chip
// array: the estimator's resource model cyclic-partitions local arrays
// into at most 64 banks (internal/hls innerBanks), and BRAM18K is
// true-dual-ported.
const portBudget = 64 * 2

// PortCap bounds the parallel lanes one loop can keep busy against
// banked on-chip arrays: a loop issuing a direct per-iteration accesses
// to one local array can feed at most portBudget/a lanes before the
// banks' ports serialize the replicas. 0 means unbounded. The task
// loop is never capped (each PE replicates private arrays).
func (a *Analysis) PortCap(id string) int { return a.caps[id] }

// Param returns the profile for the named array param, or nil.
func (a *Analysis) Param(name string) *ParamProfile {
	for i := range a.Params {
		if a.Params[i].Name == name {
			return &a.Params[i]
		}
	}
	return nil
}

// Analyze runs the access-pattern analysis. The kernel is read, never
// mutated; the result is deterministic for a given kernel.
func Analyze(k *cir.Kernel) *Analysis {
	w := newWalker(k)
	w.block(k.Body)

	a := &Analysis{
		Kernel: k,
		Sites:  w.sites,
		Loops:  map[string][]*LoopArray{},
		caps:   map[string]int{},
	}
	for _, l := range k.Loops() {
		a.LoopOrder = append(a.LoopOrder, l.ID)
		a.Loops[l.ID] = a.loopSummaries(l.ID, w)
		if l.ID != k.TaskLoopID {
			if cap := a.portCap(l.ID); cap > 0 {
				a.caps[l.ID] = cap
			}
		}
	}
	for i := range k.Params {
		if k.Params[i].IsArray {
			a.Params = append(a.Params, a.paramProfile(&k.Params[i], w))
		}
	}
	return a
}

// loopSummaries aggregates the subtree sites of one loop by array.
func (a *Analysis) loopSummaries(id string, w *walker) []*LoopArray {
	byArr := map[string]*LoopArray{}
	var names []string
	for _, s := range a.Sites {
		if !chainHas(s.Chain, id) {
			continue
		}
		la := byArr[s.Array]
		if la == nil {
			la = &LoopArray{Array: s.Array, Kind: s.Kind, Worst: Invariant, FootprintKnown: true}
			byArr[s.Array] = la
			names = append(names, s.Array)
		}
		la.Sites = append(la.Sites, s)
		cl := s.Claims[id]
		if cl.Class < la.Worst {
			la.Worst = cl.Class
		}
		if st := absI64(cl.Stride); cl.Class.Affine() && st > la.MaxStride {
			la.MaxStride = st
		}
	}
	sort.Strings(names)
	out := make([]*LoopArray, 0, len(names))
	for _, n := range names {
		la := byArr[n]
		la.Footprint, la.FootprintKnown = a.footprint(la.Sites, w.arrLen[n])
		la.Reuse = reuseOf(la.Sites, id)
		out = append(out, la)
	}
	return out
}

// footprint is the interval hull of the sites' subscripts with every
// enclosing induction variable ranging over its full extent — an
// overestimate of what the loop touches, which is the safe direction
// for staging decisions. ok=false when any site resists bounding.
func (a *Analysis) footprint(sites []*Site, arrLen int64) (int64, bool) {
	var lo, hi int64
	first := true
	for _, s := range sites {
		slo, shi, ok := s.extent(nil)
		if !ok {
			return 0, false
		}
		if first || slo < lo {
			lo = slo
		}
		if first || shi > hi {
			hi = shi
		}
		first = false
	}
	if first {
		return 0, false
	}
	if arrLen > 0 {
		if lo < 0 {
			lo = 0
		}
		if hi > arrLen-1 {
			hi = arrLen - 1
		}
	}
	if hi < lo {
		return 0, true
	}
	return hi - lo + 1, true
}

// extent bounds the subscript over the full ranges of the site's chain
// variables, skipping any variable in drop (its term must then be
// handled by the caller). Non-varying scalars are rejected here — they
// shift the absolute interval by an unknown constant.
func (s *Site) extent(drop map[string]bool) (lo, hi int64, ok bool) {
	if s.DataDep || !s.AffineOK {
		return 0, 0, false
	}
	//determinism:allow order-independent: existence check over coefficients
	for _, c := range s.form.Syms {
		if c != 0 {
			return 0, 0, false
		}
	}
	lo, hi = s.form.Const, s.form.Const
	for _, l := range s.chainLs {
		c := s.form.Ind[l.Var]
		if c == 0 || (drop != nil && drop[l.Var]) {
			continue
		}
		vlo, vhi, okR := depend.LoopVarRange(l)
		if !okR {
			return 0, 0, false
		}
		a, b := c*vlo, c*vhi
		if a > b {
			a, b = b, a
		}
		lo += a
		hi += b
	}
	return lo, hi, true
}

// reuseOf derives the buffering verdict for one array under one loop.
func reuseOf(sites []*Site, id string) string {
	allBurst, allInv := true, true
	for _, s := range sites {
		switch s.Claims[id].Class {
		case Burst:
			allInv = false
		case Invariant:
			allBurst = false
		default:
			allBurst, allInv = false, false
		}
	}
	switch {
	case allBurst:
		return "stream"
	case allInv:
		return "reused"
	}
	return "mixed"
}

// portCap computes the lane bound for one loop from its direct on-chip
// accesses. Params are excluded (interface staging buffers ride their
// own AXI lanes) and invariant sites are excluded (hoistable to
// registers, no per-lane port).
func (a *Analysis) portCap(id string) int {
	pressure := map[string]int{}
	for _, s := range a.Sites {
		if s.InnerLoop != id || s.Kind == ArrParam {
			continue
		}
		if s.Claims[id].Class == Invariant {
			continue
		}
		pressure[s.Array]++
	}
	cap := 0
	//determinism:allow order-independent: commutative min over per-array pressure
	for _, n := range pressure {
		c := portBudget / n
		if c < 1 {
			c = 1
		}
		if cap == 0 || c < cap {
			cap = c
		}
	}
	return cap
}

// paramProfile derives the DDR model inputs for one interface buffer.
func (a *Analysis) paramProfile(p *cir.Param, w *walker) ParamProfile {
	pr := ParamProfile{Name: p.Name, Worst: Invariant, StageElems: int64(p.Length)}
	var sites []*Site
	for _, s := range a.Sites {
		if s.Array != p.Name {
			continue
		}
		sites = append(sites, s)
		if s.AffineOK {
			pr.Stageable = true
		}
		pr.Accesses += s.perTask
		if c := s.Class(); c < pr.Worst || pr.WorstSite == nil {
			pr.Worst = c
			pr.WorstSite = s
		}
	}
	if len(sites) == 0 {
		// Untouched buffer: the interface still transfers it whole.
		pr.Stageable = true
		pr.Worst = Invariant
		return pr
	}
	if span, ok := a.taskSpan(sites, int64(p.Length), w.taskID); ok && span < pr.StageElems {
		pr.StageElems = span
	}
	return pr
}

// taskSpan bounds the per-task element span of a param: the subscript
// hull with the task variable's term dropped (fixed within one task).
// Sites must agree on the dropped coefficients for their relative
// intervals to be comparable; otherwise fall back to the full length.
func (a *Analysis) taskSpan(sites []*Site, length int64, taskID string) (int64, bool) {
	var lo, hi int64
	var taskCoeff int64
	first := true
	for _, s := range sites {
		var drop map[string]bool
		var tc int64
		for _, l := range s.chainLs {
			if l.ID == taskID {
				drop = map[string]bool{l.Var: true}
				tc = s.form.Ind[l.Var]
			}
		}
		slo, shi, ok := s.extent(drop)
		if !ok {
			return 0, false
		}
		if first {
			taskCoeff = tc
		} else if tc != taskCoeff {
			return 0, false
		}
		if first || slo < lo {
			lo = slo
		}
		if first || shi > hi {
			hi = shi
		}
		first = false
	}
	if first {
		return 0, false
	}
	span := hi - lo + 1
	if span < 1 {
		span = 1
	}
	if length > 0 && span > length {
		span = length
	}
	return span, true
}

func chainHas(chain []string, id string) bool {
	for _, c := range chain {
		if c == id {
			return true
		}
	}
	return false
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
