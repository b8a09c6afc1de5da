package apps

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"s2fa/internal/access"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
)

// The access classifier's contract is one-sided: it may demote any site
// to gather or unknown, but an affine claim — burst, strided, or
// invariant, with its coefficient — must hold on every dynamic
// execution:
//
//	addr = Coeff * value(L.Var) + r
//
// with the residual r fixed while every other enclosing induction
// variable is fixed. This file enforces exactly that statement
// differentially: the JVM simulator runs each workload with a trace hook
// recording every concrete array access with its induction vector, then
// for every claimed (site, loop) pair the events are grouped by backing
// array and the values of all *other* induction variables, and the
// residual idx - Coeff*vals[d] must be constant within each group. A
// single moving residual is a soundness bug in the classifier, not a
// modeling inaccuracy.
//
// Gather and unknown claims promise nothing and are unconstrained; the
// harness reuses chainsByPos and the attribution rules from the
// dependence property test.

// accEvent is one recorded dynamic access at a claimed site: the backing
// array pointer, the concrete subscript, and the induction values of the
// site's chain (outermost first).
type accEvent struct {
	ptr  uintptr
	idx  int64
	vals []int64
}

// accSite is the static side of the check: one classified access site
// whose kdsl position attributes runtime events, with the loop chain
// shared with the dependence harness.
type accSite struct {
	site  *access.Site
	chain []loopCtx
}

// accRecorder is the jvmsim trace hook state for one seed's run.
type accRecorder struct {
	call   *bytecode.Method
	task   int64
	sites  map[cir.Pos]*accSite
	events map[cir.Pos][]accEvent
	// pin retains every observed backing slice so the garbage collector
	// can never recycle an address — array identity stays unique for the
	// whole run.
	pin map[uintptr][]cir.Value
}

func (r *accRecorder) hook(m *bytecode.Method, pc int, stack, locals []jvmsim.Val) {
	if m != r.call {
		return
	}
	var arrV jvmsim.Val
	var idx int64
	switch m.Code[pc].Op {
	case bytecode.OpALoad:
		arrV, idx = stack[len(stack)-2], stack[len(stack)-1].S.AsInt()
	case bytecode.OpAStore:
		arrV, idx = stack[len(stack)-3], stack[len(stack)-2].S.AsInt()
	default:
		return
	}
	if !arrV.IsArr || len(arrV.Arr) == 0 || idx < 0 || idx >= int64(len(arrV.Arr)) {
		return
	}
	bp := m.PosAt(pc)
	pos := cir.Pos{Line: bp.Line, Col: bp.Col}
	st, ok := r.sites[pos]
	if !ok {
		return
	}
	vals := make([]int64, len(st.chain))
	for i, lc := range st.chain {
		switch {
		case lc.slot == -1:
			vals[i] = r.task
		case lc.slot < 0 || lc.slot >= len(locals):
			return // unmapped induction variable: cannot attribute
		default:
			vals[i] = locals[lc.slot].S.AsInt()
		}
	}
	ptr := reflect.ValueOf(arrV.Arr).Pointer()
	r.pin[ptr] = arrV.Arr
	r.events[pos] = append(r.events[pos], accEvent{ptr: ptr, idx: idx, vals: vals})
}

// claimedSites pairs every classified site with the loop chain the
// dependence harness attributes to its position. Positions whose chain is
// ambiguous (dropped by chainsByPos), claimed by several sites with
// different claims, or whose static chain disagrees with the attributed
// one are skipped — events there cannot be attributed to one claim.
func claimedSites(k *cir.Kernel, acc *access.Analysis, m *bytecode.Method) map[cir.Pos]*accSite {
	chains := chainsByPos(k, m)
	out := map[cir.Pos]*accSite{}
	drop := map[cir.Pos]bool{}
	for _, s := range acc.Sites {
		if !s.Pos.Valid() {
			continue
		}
		chain, ok := chains[s.Pos]
		if !ok || len(chain) != len(s.Chain) {
			continue
		}
		agree := true
		for i, lc := range chain {
			if lc.loop.ID != s.Chain[i] {
				agree = false
			}
		}
		if !agree {
			continue
		}
		if prev, ok := out[s.Pos]; ok {
			if !reflect.DeepEqual(prev.site.Claims, s.Claims) {
				drop[s.Pos] = true
			}
			continue
		}
		out[s.Pos] = &accSite{site: s, chain: chain}
	}
	for p := range drop {
		delete(out, p)
	}
	return out
}

// check validates every affine claim against the recorded events and
// returns how many (group, depth) residuals it pinned.
func (r *accRecorder) check(t *testing.T, name string) int {
	t.Helper()
	checked, failures := 0, 0
	const maxFailures = 5
	for pos, evs := range r.events {
		st := r.sites[pos]
		for d, lc := range st.chain {
			cl := st.site.Claims[lc.loop.ID]
			if !cl.Class.Affine() && cl.Class != access.Invariant {
				continue // gather/unknown: no promise to check
			}
			// Group by backing array and every induction value except
			// depth d; within a group the claim says idx - Coeff*vals[d]
			// is one fixed residual.
			type groupState struct {
				residual int64
				first    accEvent
			}
			groups := map[string]*groupState{}
			for _, ev := range evs {
				if failures > maxFailures {
					return checked
				}
				key := strconv.FormatUint(uint64(ev.ptr), 16)
				for i, v := range ev.vals {
					if i == d {
						continue
					}
					key += "," + strconv.FormatInt(v, 10)
				}
				res := ev.idx - cl.Coeff*ev.vals[d]
				g, ok := groups[key]
				if !ok {
					groups[key] = &groupState{residual: res, first: ev}
					checked++
					continue
				}
				if res != g.residual {
					failures++
					t.Errorf("%s: site %s@%s claims %s (coeff %d) wrt %s, but with the other induction variables fixed the residual moved %d -> %d (idx %d at %s=%d, first idx %d at %s=%d)",
						name, st.site.Array, pos, cl.Class, cl.Coeff, lc.loop.ID,
						g.residual, res, ev.idx, lc.loop.Var, ev.vals[d],
						g.first.idx, lc.loop.Var, g.first.vals[d])
				}
			}
		}
	}
	return checked
}

// TestAccessSoundnessAllWorkloads runs all eight Table 2 workloads on
// the JVM simulator across three input seeds with the access recorder
// attached: every affine claim the classifier makes must match the
// concrete address progression, element for element. Smith-Waterman must
// actually exercise claimed sites, so the harness is known to have
// teeth.
func TestAccessSoundnessAllWorkloads(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			cls, err := a.Class()
			if err != nil {
				t.Fatal(err)
			}
			k, err := a.Kernel()
			if err != nil {
				t.Fatal(err)
			}
			acc := access.Analyze(k)
			var want []string
			for _, li := range cir.Analyze(k).All {
				want = append(want, li.Loop.ID)
			}
			if !reflect.DeepEqual(acc.LoopOrder, want) {
				t.Fatalf("LoopOrder = %v, want the loop-nest preorder %v", acc.LoopOrder, want)
			}
			sites := claimedSites(k, acc, cls.Call)
			if len(sites) == 0 {
				t.Fatal("no classified site maps to a loop chain; the harness would observe nothing")
			}
			checked := 0
			for _, seed := range []int64{1, 7, 42} {
				rec := &accRecorder{
					call:   cls.Call,
					sites:  sites,
					events: map[cir.Pos][]accEvent{},
					pin:    map[uintptr][]cir.Value{},
				}
				vm := jvmsim.New(cls)
				vm.Trace = rec.hook
				rng := rand.New(rand.NewSource(seed))
				for i, task := range a.Gen(rng, 3) {
					rec.task = int64(i)
					if _, err := vm.Call(task); err != nil {
						t.Fatalf("seed %d task %d: %v", seed, i, err)
					}
				}
				checked += rec.check(t, a.Name)
			}
			if a.Name == "S-W" && checked == 0 {
				t.Error("S-W pinned no residuals; the recorder is not seeing the claimed sites")
			}
			t.Logf("%s: %d residual groups pinned against affine claims", a.Name, checked)
		})
	}
}
