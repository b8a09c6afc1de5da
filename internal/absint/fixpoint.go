package absint

import (
	"fmt"
	"math"
	"sort"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// absVal is the analyzer's abstraction of one runtime value (jvmsim.Val):
// a scalar interval with best-effort kind tracking, a set of abstract
// array objects the reference may point to, or a tuple of abstractions.
type absVal struct {
	iv  Interval
	k   cir.Kind
	kok bool // k is known exactly

	arrs  []int // sorted indices into analyzer.objs
	isArr bool

	tup   []absVal
	isTup bool

	// origin/over tie a loaded value back to its local slot for branch
	// refinement; both are block-local (the operand stack is empty at
	// leaders, so a condition never outlives its block).
	origin int
	over   int
	cond   *condFact
}

// condFact records the comparison that produced a Bool so branches can
// refine the operands' local slots on each outgoing edge.
type condFact struct {
	op          cir.BinOp
	neg         bool
	lOrig, lVer int
	rOrig, rVer int
	lIv, rIv    Interval
	intCmp      bool // integer comparison: strict bounds tighten by 1
}

func scalarVal(iv Interval, k cir.Kind) absVal {
	return absVal{iv: iv, k: k, kok: true, origin: -1}
}

// join merges two abstract values (clearing block-local provenance).
func (v absVal) join(o absVal) absVal {
	out := absVal{
		iv:     v.iv.Join(o.iv),
		k:      v.k,
		kok:    v.kok && o.kok && v.k == o.k,
		isArr:  v.isArr || o.isArr,
		isTup:  v.isTup || o.isTup,
		origin: -1,
	}
	out.arrs = unionSorted(v.arrs, o.arrs)
	n := len(v.tup)
	if len(o.tup) > n {
		n = len(o.tup)
	}
	for i := 0; i < n; i++ {
		var a, b absVal
		a.origin, b.origin = -1, -1
		if i < len(v.tup) {
			a = v.tup[i]
		}
		if i < len(o.tup) {
			b = o.tup[i]
		}
		out.tup = append(out.tup, a.join(b))
	}
	return out
}

func (v absVal) equal(o absVal) bool {
	if v.iv != o.iv || v.kok != o.kok || (v.kok && v.k != o.k) ||
		v.isArr != o.isArr || v.isTup != o.isTup ||
		len(v.arrs) != len(o.arrs) || len(v.tup) != len(o.tup) {
		return false
	}
	for i := range v.arrs {
		if v.arrs[i] != o.arrs[i] {
			return false
		}
	}
	for i := range v.tup {
		if !v.tup[i].equal(o.tup[i]) {
			return false
		}
	}
	return true
}

func unionSorted(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// state is the abstract machine state at a program point: the locals
// array (the operand stack is block-local and always empty at leaders).
type state struct {
	locals []absVal
}

// States are cloned, joined element-wise in place, and recycled through
// the analyzer's freelist (see workspace.go and fixpoint's edge loop).

// arrObj is one abstract array object during analysis.
type arrObj struct {
	facts   ArrayFacts
	seed    Interval // initial element range (before any store)
	updates int      // widening counter for element stores
}

// widenAfter is the number of state joins at a leader (or element
// updates on an array) before widening kicks in.
const widenAfter = 8

// analyzer runs the fixpoint for one method.
type analyzer struct {
	m    *bytecode.Method
	cls  *bytecode.Class
	args []Abstract
	// argWrites marks whether stores into argument arrays count as heap
	// effects (true for call, false for reduce, which owns its operands).
	argWrites bool

	leaders []int // sorted block start pcs
	// backTargets marks leaders entered by a retreating edge (loop
	// heads); widening applies only there — every cycle contains one, so
	// the fixpoint still terminates, and forward-edge leaders keep the
	// precision branch refinement gives them.
	backTargets map[int]bool
	in          map[int]*state
	joins       map[int]int
	objs        []arrObj
	statics     map[string]int
	news        map[int]int

	facts      *MethodFacts
	heapWrites map[int]Effect
	escapes    map[int]Effect
	viol       map[int]Violation
	objChanged bool

	// ws holds the reusable state freelist and simBlock buffers.
	ws *workspace
}

type edge struct {
	to int
	st *state
}

func (ws *workspace) analyzeMethod(m *bytecode.Method, cls *bytecode.Class, args []Abstract, argWrites bool) (*MethodFacts, error) {
	a := &analyzer{
		m: m, cls: cls, args: args, argWrites: argWrites, ws: ws,
		in:      make(map[int]*state),
		joins:   make(map[int]int),
		statics: make(map[string]int),
		news:    make(map[int]int),
		facts: &MethodFacts{
			Method: m,
			Local:  make([]Interval, len(m.LocalTypes)),
			Stored: make(map[int]Interval),
			Loaded: make(map[int]Interval),
			Ret:    Abstract{Iv: Bottom(), Elems: Bottom(), Len: Bottom()},
		},
		heapWrites: make(map[int]Effect),
		escapes:    make(map[int]Effect),
		viol:       make(map[int]Violation),
	}
	for i := range a.facts.Local {
		a.facts.Local[i] = Bottom()
	}
	a.buildCFG()

	init, err := a.initialState()
	if err != nil {
		return nil, err
	}
	a.in[0] = init
	if err := a.fixpoint(); err != nil {
		return nil, err
	}
	if err := a.narrowHeap(); err != nil {
		return nil, err
	}
	if err := a.record(); err != nil {
		return nil, err
	}

	a.facts.Violations = append(a.facts.Violations, typeViolations(m)...)
	pcs := make([]int, 0, len(a.viol))
	for pc := range a.viol {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		a.facts.Violations = append(a.facts.Violations, a.viol[pc])
	}
	a.facts.Purity.HeapWrites = sortedEffects(a.heapWrites)
	a.facts.Purity.ArgEscapes = sortedEffects(a.escapes)
	for _, o := range a.objs {
		a.facts.Arrays = append(a.facts.Arrays, o.facts)
	}
	// The recorded facts hold only intervals and copies, never states, so
	// the per-leader states can feed the next method's analysis.
	for _, st := range a.in {
		a.release(st)
	}
	return a.facts, nil
}

// buildCFG lists the block leaders bytecode.Leaders marks, in pc order,
// and the loop heads among them.
func (a *analyzer) buildCFG() {
	for pc, leader := range bytecode.Leaders(a.m) {
		if leader {
			a.leaders = append(a.leaders, pc)
		}
	}
	a.backTargets = make(map[int]bool)
	for i, in := range a.m.Code {
		switch in.Op {
		case bytecode.OpGoto, bytecode.OpBrFalse, bytecode.OpBrTrue:
			if in.Target >= 0 && in.Target <= i {
				a.backTargets[in.Target] = true
			}
		}
	}
}

// blockEnd returns one past the last pc of the block starting at pc.
func (a *analyzer) blockEnd(start int) int {
	idx := sort.SearchInts(a.leaders, start+1)
	if idx < len(a.leaders) {
		return a.leaders[idx]
	}
	return len(a.m.Code)
}

// initialState seeds locals from the argument abstractions; non-argument
// slots start at the JVM zero value.
func (a *analyzer) initialState() (*state, error) {
	if len(a.args) != len(a.m.Params) {
		return nil, fmt.Errorf("absint: %s expects %d args, got %d", a.m.Name, len(a.m.Params), len(a.args))
	}
	st := a.newState(len(a.m.LocalTypes))
	for i := range st.locals {
		// Zero initialization: jvmsim locals start as the zero Val, a
		// scalar 0 of kind Void.
		st.locals[i] = absVal{iv: pointIv(0), origin: -1}
	}
	for i, arg := range a.args {
		v, err := a.importAbstract(arg, a.m.Params[i], fmt.Sprintf("param#%d", i))
		if err != nil {
			return nil, err
		}
		st.locals[i] = v
	}
	return st, nil
}

// importAbstract materializes an argument abstraction, registering input
// array objects.
func (a *analyzer) importAbstract(ab Abstract, t bytecode.TypeDesc, origin string) (absVal, error) {
	switch {
	case ab.IsTuple() || t.IsTuple():
		n := len(t.Tuple)
		if n == 0 {
			n = len(ab.Fields)
		}
		out := absVal{isTup: true, origin: -1}
		for i := 0; i < n; i++ {
			ft := bytecode.Prim(cir.Int)
			if i < len(t.Tuple) {
				ft = t.Tuple[i]
			}
			fa := Abstract{Iv: Top(), Elems: Top(), Len: Top()}
			if i < len(ab.Fields) {
				fa = ab.Fields[i]
			}
			// Fields of the first parameter (the call method's task input)
			// keep the short "field#i" origin; fields of later parameters
			// (reduce operands) are qualified to stay unambiguous.
			forigin := fmt.Sprintf("field#%d", i)
			if origin != "param#0" {
				forigin = fmt.Sprintf("%s.field#%d", origin, i)
			}
			fv, err := a.importAbstract(fa, ft, forigin)
			if err != nil {
				return absVal{}, err
			}
			out.tup = append(out.tup, fv)
		}
		return out, nil
	case ab.IsArray || t.Array:
		idx := len(a.objs)
		a.objs = append(a.objs, arrObj{seed: ab.Elems, facts: ArrayFacts{
			Origin: origin,
			Kind:   t.Kind,
			Elems:  ab.Elems,
			Len:    ab.Len,
			Input:  true,
		}})
		return absVal{isArr: true, arrs: []int{idx}, origin: -1}, nil
	default:
		return absVal{iv: ab.Iv, k: t.Kind, kok: true, origin: -1}, nil
	}
}

// staticObj returns (registering on first use) the abstract object for a
// static field.
func (a *analyzer) staticObj(sym string, k cir.Kind) int {
	if idx, ok := a.statics[sym]; ok {
		return idx
	}
	f := ArrayFacts{Origin: "static:" + sym, Kind: k, Static: true, Elems: Bottom(), Len: Top()}
	if a.cls != nil {
		if sf := a.cls.Static(sym); sf != nil {
			f.Kind = sf.Type.Kind
			f.Len = pointIv(float64(len(sf.Data)))
			for _, v := range sf.Data {
				f.Elems = f.Elems.Join(Const(v))
			}
		}
	}
	if f.Elems.IsBottom() {
		f.Elems = kindRange(f.Kind)
	}
	idx := len(a.objs)
	a.objs = append(a.objs, arrObj{seed: f.Elems, facts: f})
	a.statics[sym] = idx
	return idx
}

// newObj returns (registering on first visit) the abstract object for an
// OpNewArray site. Fresh arrays are zero filled.
func (a *analyzer) newObj(pc int, k cir.Kind, length Interval) int {
	if idx, ok := a.news[pc]; ok {
		o := &a.objs[idx]
		grown := o.facts.Len.Join(length)
		if grown != o.facts.Len {
			o.facts.Len = grown
			a.objChanged = true
		}
		return idx
	}
	idx := len(a.objs)
	a.objs = append(a.objs, arrObj{seed: pointIv(0), facts: ArrayFacts{
		Origin: fmt.Sprintf("new@%d", pc),
		Kind:   k,
		Elems:  pointIv(0),
		Len:    length,
		Pos:    a.m.PosAt(pc),
	}})
	a.news[pc] = idx
	return idx
}

// fixpoint runs the worklist until states and array facts stabilize.
// Array-element facts are global (a store in one block is visible to
// loads everywhere), so when they change the whole reachable region is
// revisited.
func (a *analyzer) fixpoint() error {
	for round := 0; ; round++ {
		if round > 64 {
			return fmt.Errorf("absint: %s: global fixpoint did not converge", a.m.Name)
		}
		work := []int{0}
		queued := map[int]bool{0: true}
		for pc := range a.in {
			if !queued[pc] {
				work = append(work, pc)
				queued[pc] = true
			}
		}
		sort.Ints(work)
		a.objChanged = false
		for len(work) > 0 {
			pc := work[0]
			work = work[1:]
			queued[pc] = false
			a.facts.Fixpoint.Iterations++
			st := a.cloneOf(a.in[pc])
			edges, err := a.simBlock(pc, st, false)
			if err != nil {
				return err
			}
			for _, e := range edges {
				prev, ok := a.in[e.to]
				if !ok {
					a.in[e.to] = e.st
				} else {
					// Join in place into the edge's state (each edge owns
					// its state, and prev stays intact until the loop ends,
					// so widening still reads the pre-join bounds).
					a.joins[e.to]++
					a.facts.Fixpoint.Joins++
					widen := a.backTargets[e.to] && a.joins[e.to] > widenAfter
					if widen {
						a.facts.Fixpoint.Widenings++
					}
					changed := false
					for i := range e.st.locals {
						next := prev.locals[i].join(e.st.locals[i])
						if widen {
							next.iv = next.iv.Widen(prev.locals[i].iv, a.widenLimit(next))
						}
						if !changed && !next.equal(prev.locals[i]) {
							changed = true
						}
						e.st.locals[i] = next
					}
					if !changed {
						a.release(e.st)
						continue
					}
					a.in[e.to] = e.st
					a.release(prev)
				}
				if !queued[e.to] {
					queued[e.to] = true
					work = append(work, e.to)
				}
			}
		}
		if !a.objChanged {
			return nil
		}
	}
}

// widenLimit picks the widening target for a local: its exact kind range
// when known, otherwise unbounded.
func (a *analyzer) widenLimit(v absVal) Interval {
	if v.kok && !v.k.IsFloat() && v.k != cir.Void {
		return kindRange(v.k)
	}
	return Top()
}

// narrowHeap tightens the widening-inflated array-element facts. The
// stabilized local states remain sound for any heap below the widened
// one, so the heap equations can be re-solved from their seeds against
// the frozen locals (a descending "narrowing" iteration). If they fail
// to re-converge within a few passes (self-dependent recurrences like
// the S-W score matrix genuinely grow), the widened facts are restored —
// still sound, just coarser.
func (a *analyzer) narrowHeap() error {
	saved := make([]Interval, len(a.objs))
	for i := range a.objs {
		saved[i] = a.objs[i].facts.Elems
		a.objs[i].facts.Elems = a.objs[i].seed
		a.objs[i].updates = 0
	}
	pcs := make([]int, 0, len(a.in))
	for pc := range a.in {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for pass := 0; pass < widenAfter; pass++ {
		a.objChanged = false
		for _, pc := range pcs {
			edges, err := a.simBlock(pc, a.cloneOf(a.in[pc]), false)
			if err != nil {
				return err
			}
			for _, e := range edges {
				a.release(e.st)
			}
		}
		if !a.objChanged {
			return nil
		}
	}
	for i := range saved {
		a.objs[i].facts.Elems = a.objs[i].facts.Elems.Join(saved[i])
	}
	return nil
}

// record replays every reachable block once over the stabilized states,
// filling the per-pc fact tables, the purity summary, and violations.
func (a *analyzer) record() error {
	pcs := make([]int, 0, len(a.in))
	for pc := range a.in {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		edges, err := a.simBlock(pc, a.cloneOf(a.in[pc]), true)
		if err != nil {
			return err
		}
		for _, e := range edges {
			a.release(e.st)
		}
	}
	return nil
}

func (a *analyzer) recLocal(slot int, v absVal) {
	a.facts.Local[slot] = a.facts.Local[slot].Join(v.iv)
	for _, f := range v.tup {
		// Fold tuple scalar fields into the slot summary too, so the
		// range is meaningful for tuple-typed locals.
		if !f.isArr && !f.isTup {
			a.facts.Local[slot] = a.facts.Local[slot].Join(f.iv)
		}
	}
}

// elemsOf joins the element ranges of every object a reference may
// target.
func (a *analyzer) elemsOf(v absVal) Interval {
	out := Bottom()
	for _, idx := range v.arrs {
		out = out.Join(a.objs[idx].facts.Elems)
	}
	if len(v.arrs) == 0 {
		return Top()
	}
	return out
}

func (a *analyzer) lensOf(v absVal) Interval {
	out := Bottom()
	for _, idx := range v.arrs {
		out = out.Join(a.objs[idx].facts.Len)
	}
	if len(v.arrs) == 0 {
		return Interval{0, kindRange(cir.Int).Hi}
	}
	return out
}

// simBlock interprets one basic block from the given entry state,
// returning the successor edges. With record set it also accumulates the
// externally visible fact tables.
func (a *analyzer) simBlock(start int, st *state, record bool) ([]edge, error) {
	m := a.m
	end := a.blockEnd(start)
	stack := a.ws.stk[:0]
	defer func() { a.ws.stk = stack[:0] }()
	push := func(v absVal) { stack = append(stack, v) }
	pop := func(at int) (absVal, error) {
		if len(stack) == 0 {
			return absVal{}, fmt.Errorf("absint: %s@%d: stack underflow", m.Name, at)
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v, nil
	}
	var vers []int
	if cap(a.ws.vers) >= len(st.locals) {
		vers = a.ws.vers[:len(st.locals)]
		for i := range vers {
			vers[i] = 0
		}
	} else {
		vers = make([]int, len(st.locals))
		a.ws.vers = vers
	}

	if record {
		for i := range st.locals {
			a.recLocal(i, st.locals[i])
		}
	}

	for pc := start; pc < end; pc++ {
		in := m.Code[pc]
		switch in.Op {
		case bytecode.OpConst:
			push(scalarVal(Const(in.Val), in.Val.K))

		case bytecode.OpLoad:
			if in.A < 0 || in.A >= len(st.locals) {
				return nil, fmt.Errorf("absint: %s@%d: load from invalid slot %d", m.Name, pc, in.A)
			}
			v := st.locals[in.A]
			v.origin, v.over, v.cond = in.A, vers[in.A], nil
			push(v)

		case bytecode.OpStore:
			if in.A < 0 || in.A >= len(st.locals) {
				return nil, fmt.Errorf("absint: %s@%d: store to invalid slot %d", m.Name, pc, in.A)
			}
			v, err := pop(pc)
			if err != nil {
				return nil, err
			}
			v.origin, v.cond = -1, nil
			vers[in.A]++
			st.locals[in.A] = v
			if record {
				a.recLocal(in.A, v)
				a.facts.Stored[pc] = fetch(a.facts.Stored, pc).Join(v.iv)
			}

		case bytecode.OpALoad:
			idx, err := pop(pc)
			if err != nil {
				return nil, err
			}
			_ = idx
			arr, err := pop(pc)
			if err != nil {
				return nil, err
			}
			elems := a.elemsOf(arr)
			v := absVal{iv: elems, k: in.Kind, kok: sameElemKind(a, arr, in.Kind), origin: -1}
			if record {
				a.facts.Loaded[pc] = fetch(a.facts.Loaded, pc).Join(elems)
			}
			push(v)

		case bytecode.OpAStore:
			val, err := pop(pc)
			if err != nil {
				return nil, err
			}
			if _, err := pop(pc); err != nil { // index
				return nil, err
			}
			arr, err := pop(pc)
			if err != nil {
				return nil, err
			}
			for _, oi := range arr.arrs {
				o := &a.objs[oi]
				conv := castInterval(o.facts.Kind, val.iv)
				grown := o.facts.Elems.Join(conv)
				if grown != o.facts.Elems {
					o.updates++
					if o.updates > widenAfter {
						grown = grown.Widen(o.facts.Elems, kindRange(o.facts.Kind))
						a.facts.Fixpoint.ArrayWidenings++
					}
					o.facts.Elems = grown
					a.objChanged = true
				}
				if record && (o.facts.Static || (o.facts.Input && a.argWrites)) {
					a.heapWrites[pc] = Effect{
						PC: pc, Pos: m.PosAt(pc),
						Detail: fmt.Sprintf("store into caller-visible array %s", o.facts.Origin),
					}
				}
			}
			if record {
				a.facts.Stored[pc] = fetch(a.facts.Stored, pc).Join(val.iv)
			}

		case bytecode.OpArrayLen:
			arr, err := pop(pc)
			if err != nil {
				return nil, err
			}
			push(scalarVal(a.lensOf(arr), cir.Int))

		case bytecode.OpNewArray:
			n, err := pop(pc)
			if err != nil {
				return nil, err
			}
			oi := a.newObj(pc, in.Kind, n.iv)
			if record {
				if _, ok := n.iv.ConstInt(); !ok {
					a.viol[pc] = Violation{
						Kind: ViolDynamicAlloc, Method: m.Name, PC: pc, Pos: m.PosAt(pc),
						Detail: fmt.Sprintf("array size not a compile-time constant (range %s); dynamic allocation is unsupported on the FPGA", n.iv),
					}
				}
			}
			push(absVal{isArr: true, arrs: []int{oi}, origin: -1})

		case bytecode.OpGetField:
			tup, err := pop(pc)
			if err != nil {
				return nil, err
			}
			if in.A < 0 || in.A >= len(tup.tup) {
				if !tup.isTup {
					return nil, fmt.Errorf("absint: %s@%d: getfield on non-tuple", m.Name, pc)
				}
				return nil, fmt.Errorf("absint: %s@%d: field _%d out of range", m.Name, pc, in.A+1)
			}
			v := tup.tup[in.A]
			v.origin, v.cond = -1, nil
			push(v)

		case bytecode.OpNewTuple:
			fields := make([]absVal, in.A)
			for j := in.A - 1; j >= 0; j-- {
				v, err := pop(pc)
				if err != nil {
					return nil, err
				}
				fields[j] = v
			}
			push(absVal{isTup: true, tup: fields, origin: -1})

		case bytecode.OpGetStatic:
			oi := a.staticObj(in.Sym, in.Kind)
			push(absVal{isArr: true, arrs: []int{oi}, origin: -1})

		case bytecode.OpBin:
			r, err := pop(pc)
			if err != nil {
				return nil, err
			}
			l, err := pop(pc)
			if err != nil {
				return nil, err
			}
			push(a.binVal(in, l, r))

		case bytecode.OpUn:
			x, err := pop(pc)
			if err != nil {
				return nil, err
			}
			push(unVal(in, x))

		case bytecode.OpCast:
			x, err := pop(pc)
			if err != nil {
				return nil, err
			}
			push(scalarVal(castInterval(in.Kind, x.iv), in.Kind))

		case bytecode.OpIntrin:
			if in.A < 0 || in.A > len(stack) {
				return nil, fmt.Errorf("absint: %s@%d: intrinsic arity %d", m.Name, pc, in.A)
			}
			args := make([]Interval, in.A)
			for j := in.A - 1; j >= 0; j-- {
				v, err := pop(pc)
				if err != nil {
					return nil, err
				}
				args[j] = v.iv
			}
			if !cir.Intrinsics[in.Sym] {
				if record {
					a.viol[pc] = Violation{
						Kind: ViolExternalCall, Method: m.Name, PC: pc, Pos: m.PosAt(pc),
						Detail: fmt.Sprintf("call to %q is outside the supported math intrinsics (library calls are unsupported)", in.Sym),
					}
				}
				push(scalarVal(kindRange(in.Kind), in.Kind))
				break
			}
			push(scalarVal(intrinInterval(in.Sym, in.Kind, args), in.Kind))

		case bytecode.OpGoto:
			if in.Target < 0 || in.Target >= len(m.Code) {
				return nil, fmt.Errorf("absint: %s@%d: branch target %d out of range", m.Name, pc, in.Target)
			}
			return []edge{{to: in.Target, st: st}}, nil

		case bytecode.OpBrFalse, bytecode.OpBrTrue:
			c, err := pop(pc)
			if err != nil {
				return nil, err
			}
			if in.Target < 0 || in.Target >= len(m.Code) {
				return nil, fmt.Errorf("absint: %s@%d: branch target %d out of range", m.Name, pc, in.Target)
			}
			if pc+1 >= len(m.Code) {
				return nil, fmt.Errorf("absint: %s: code falls off the end", m.Name)
			}
			// takenTrue is the successor reached when the condition is
			// true: the target for brtrue, the fall-through for brfalse.
			trueTo, falseTo := in.Target, pc+1
			if in.Op == bytecode.OpBrFalse {
				trueTo, falseTo = pc+1, in.Target
			}
			var edges []edge
			if c.iv.Contains(1) || c.iv.Hi > 0 {
				ts := a.cloneOf(st)
				if refineEdge(ts, vers, c.cond, true) {
					edges = append(edges, edge{to: trueTo, st: ts})
				} else {
					a.release(ts)
				}
			}
			if c.iv.Contains(0) {
				fs := a.cloneOf(st)
				if refineEdge(fs, vers, c.cond, false) {
					edges = append(edges, edge{to: falseTo, st: fs})
				} else {
					a.release(fs)
				}
			}
			if len(edges) == 0 {
				// Degenerate condition abstraction: keep both edges to stay
				// sound.
				return []edge{{to: trueTo, st: st}, {to: falseTo, st: a.cloneOf(st)}}, nil
			}
			a.release(st)
			return edges, nil

		case bytecode.OpReturn:
			ret := m.Ret
			if ret.Kind != cir.Void || ret.Array || ret.IsTuple() {
				v, err := pop(pc)
				if err != nil {
					return nil, err
				}
				if record {
					a.recRet(pc, v)
				}
			}
			a.release(st)
			return nil, nil

		default:
			return nil, fmt.Errorf("absint: %s@%d: unknown opcode %d", m.Name, pc, in.Op)
		}
	}
	if end >= len(m.Code) {
		return nil, fmt.Errorf("absint: %s: code falls off the end", m.Name)
	}
	return []edge{{to: end, st: st}}, nil
}

func fetch(m map[int]Interval, pc int) Interval {
	if iv, ok := m[pc]; ok {
		return iv
	}
	return Bottom()
}

// sameElemKind reports whether every object the reference may target has
// element kind k.
func sameElemKind(a *analyzer, arr absVal, k cir.Kind) bool {
	if len(arr.arrs) == 0 {
		return false
	}
	for _, oi := range arr.arrs {
		if a.objs[oi].facts.Kind != k {
			return false
		}
	}
	return true
}

// binVal is the OpBin transfer: jvmsim routes LAnd/LOr through IsTrue
// and everything else through cir.EvalBinary at the instruction kind.
func (a *analyzer) binVal(in bytecode.Instr, l, r absVal) absVal {
	op := in.Bin
	if op.IsLogical() {
		return scalarVal(compareInterval(op, l.iv, r.iv), cir.Bool)
	}
	if op.IsCompare() {
		intCmp := l.kok && r.kok && !l.k.IsFloat() && !r.k.IsFloat()
		v := scalarVal(compareInterval(op, l.iv, r.iv), cir.Bool)
		v.cond = &condFact{
			op:    op,
			lOrig: l.origin, lVer: l.over,
			rOrig: r.origin, rVer: r.over,
			lIv: l.iv, rIv: r.iv,
			intCmp: intCmp,
		}
		return v
	}
	li, ri := l.iv, r.iv
	if !in.Kind.IsFloat() {
		// Operands pass through Value.AsInt (truncation toward zero).
		li = truncIv(li)
		ri = truncIv(ri)
	}
	return scalarVal(binInterval(op, in.Kind, li, ri), in.Kind)
}

func truncIv(iv Interval) Interval {
	if iv.IsBottom() {
		return iv
	}
	return Interval{math.Trunc(iv.Lo), math.Trunc(iv.Hi)}
}

// unVal is the OpUn transfer. jvmsim evaluates Neg and BitNot at the
// operand's own runtime kind, so when the kind is not known exactly the
// result is the join over every kind's wraparound.
func unVal(in bytecode.Instr, x absVal) absVal {
	switch in.Un {
	case cir.Not:
		v := scalarVal(compareInterval(cir.Eq, x.iv, Interval{0, 0}), cir.Bool)
		if x.cond != nil {
			c := *x.cond
			c.neg = !c.neg
			v.cond = &c
		}
		return v
	case cir.Neg:
		raw := Interval{-x.iv.Hi, -x.iv.Lo}
		if x.iv.IsBottom() {
			raw = Bottom()
		}
		return fitKnown(x, raw)
	case cir.BitNot:
		raw := Interval{-x.iv.Hi - 1, -x.iv.Lo - 1}
		if x.iv.IsBottom() {
			raw = Bottom()
		}
		return fitKnown(x, raw)
	}
	return scalarVal(kindRange(in.Kind), in.Kind)
}

// fitKnown wraps a raw unary result at the operand's kind when known,
// else over all possible kinds.
func fitKnown(x absVal, raw Interval) absVal {
	if x.kok {
		return scalarVal(fit(x.k, raw), x.k)
	}
	out := Bottom()
	for _, k := range []cir.Kind{cir.Bool, cir.Char, cir.Short, cir.Int, cir.Long, cir.Double} {
		out = out.Join(fit(k, raw))
	}
	v := scalarVal(out, cir.Void)
	v.kok = false
	return v
}

// refineEdge narrows the locals a comparison constrains on one branch
// edge. Returns false when the constraint proves the edge infeasible.
func refineEdge(st *state, vers []int, c *condFact, taken bool) bool {
	if c == nil {
		return true
	}
	if c.neg {
		taken = !taken
	}
	op := c.op
	if !taken {
		op = negateCmp(op)
	}
	d := 0.0
	if c.intCmp {
		d = 1
	}
	nl, nr, feasible := refineBounds(op, c.lIv, c.rIv, d)
	if !feasible {
		return false
	}
	if c.lOrig >= 0 && vers[c.lOrig] == c.lVer {
		st.locals[c.lOrig].iv = st.locals[c.lOrig].iv.Meet(nl)
	}
	if c.rOrig >= 0 && vers[c.rOrig] == c.rVer {
		st.locals[c.rOrig].iv = st.locals[c.rOrig].iv.Meet(nr)
	}
	return true
}

func negateCmp(op cir.BinOp) cir.BinOp {
	switch op {
	case cir.Lt:
		return cir.Ge
	case cir.Le:
		return cir.Gt
	case cir.Gt:
		return cir.Le
	case cir.Ge:
		return cir.Lt
	case cir.Eq:
		return cir.Ne
	case cir.Ne:
		return cir.Eq
	}
	return op
}

// refineBounds computes the constrained operand ranges under `l op r`.
// d is 1 for integer comparisons (strict bounds exclude the endpoint)
// and 0 for float comparisons.
func refineBounds(op cir.BinOp, l, r Interval, d float64) (Interval, Interval, bool) {
	inf := math.Inf(1)
	switch op {
	case cir.Lt:
		l = l.Meet(Interval{-inf, r.Hi - d})
		r = r.Meet(Interval{l.Lo + d, inf})
	case cir.Le:
		l = l.Meet(Interval{-inf, r.Hi})
		r = r.Meet(Interval{l.Lo, inf})
	case cir.Gt:
		l = l.Meet(Interval{r.Lo + d, inf})
		r = r.Meet(Interval{-inf, l.Hi - d})
	case cir.Ge:
		l = l.Meet(Interval{r.Lo, inf})
		r = r.Meet(Interval{-inf, l.Hi})
	case cir.Eq:
		m := l.Meet(r)
		l, r = m, m
	case cir.Ne:
		if d == 1 {
			if r.Lo == r.Hi {
				if l.Lo == r.Lo {
					l.Lo++
				}
				if l.Hi == r.Lo {
					l.Hi--
				}
			}
			if l.Lo == l.Hi {
				if r.Lo == l.Lo {
					r.Lo++
				}
				if r.Hi == l.Lo {
					r.Hi--
				}
			}
		}
	default:
		return l, r, true
	}
	return l, r, !l.IsBottom() && !r.IsBottom()
}

// recRet folds one return value into the method's return abstraction and
// flags escaping argument arrays.
func (a *analyzer) recRet(pc int, v absVal) {
	a.facts.Ret = joinAbstract(a.facts.Ret, a.export(v))
	a.checkEscape(pc, v)
}

func (a *analyzer) checkEscape(pc int, v absVal) {
	for _, oi := range v.arrs {
		o := a.objs[oi].facts
		if o.Input && a.argWrites {
			a.escapes[pc] = Effect{
				PC: pc, Pos: a.m.PosAt(pc),
				Detail: fmt.Sprintf("argument array %s escapes through the return value", o.Origin),
			}
		}
	}
	for _, f := range v.tup {
		a.checkEscape(pc, f)
	}
}

// export converts an internal abstract value to the public form.
func (a *analyzer) export(v absVal) Abstract {
	out := Abstract{Iv: v.iv, IsArray: v.isArr, Elems: Bottom(), Len: Bottom()}
	if v.isArr {
		out.Elems = a.elemsOf(v)
		out.Len = a.lensOf(v)
	}
	for _, f := range v.tup {
		out.Fields = append(out.Fields, a.export(f))
	}
	return out
}
