package dse

import (
	"sync"

	"s2fa/internal/access"
	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/lint"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// The prune guard is the DSE's one memo: every Run evaluates through
// it. It sits in front of the fresh-estimate step (estimate) and
// applies an ordered rule table, AutoDSE-style:
//
//   - reject rules refuse a point outright, for pruneMinutes instead of
//     a Merlin + HLS run;
//   - collapse rules map a point to the canonical representative of a
//     class of points the HLS model provably cannot tell apart. The
//     first evaluated member of a class synthesizes; every later member
//     is served that report, bit-identical to what the inner evaluator
//     would have produced, so the search trajectory is unchanged and
//     only real estimator invocations drop;
//   - the last row is the identity class, keyed on the point's own ID:
//     an exact repeat is served its report for 0 minutes and traced as
//     an hls/estimate cache hit.
//
// With Config.Prune off the table holds only the identity row.
//
// Reject rules run first, on every call. Each collapse rule maps a
// point's ID in the run's point table to the ID of its class
// representative (the point's own ID when the rule leaves it alone), and
// keeps one result per class ID; the first row whose class already holds
// a result serves it with Point set to the evaluated point. A first-seen
// point charges the result's synthesis minutes and counts towards the
// serving rule; an exact repeat is a memoized report and costs nothing.
// A served result is recorded in the classes of the rows before the
// serving one, a fresh result in every row's class.

// pruneMinutes is the virtual cost of a static rejection: a compiler
// check, microseconds of real work, against minutes for an HLS run. Kept
// slightly above zero so pruned proposals still advance the virtual
// clock (a worker cannot loop infinitely for free).
const pruneMinutes = 0.001

// rule is one row of the guard's table. Exactly one of reject and canon
// is set.
type rule struct {
	name    string
	event   string // trace event fired when the rule acts on a point
	counter string // trace counter bumped alongside the event
	tally   func(*Outcome) *int
	// reject reports whether the point is refused.
	reject func(space.Point) bool
	// canon returns the point's class representative, or nil when the
	// point is its own.
	canon func(space.Point) space.Point
}

// guardEvaluator puts inner behind the prune guard: the rule table when
// cfg.Prune is set, the identity row always. With cfg.Prune it analyzes
// k once (hls.Analyze), builds every rule from that analysis, and
// records on out how many domain values the static pruner would drop
// and how many the width model proves dominated (the space itself is
// left intact: shrinking it would change the partitions and so the
// whole search). points is the run's point table.
func guardEvaluator(k *cir.Kernel, sp *space.Space, points *space.Table, inner func(space.Point, space.ID) tuner.Result, cfg Config, out *Outcome) tuner.Evaluator {
	var rules []rule
	if cfg.Prune {
		an := hls.Analyze(k)
		_, out.PrunedDomainValues = space.PruneStatic(sp, an.Checker())
		out.RangeRestrictedValues = dominatedWidths(k, sp, an.WidthModel(cfg.device()))
		rules = pruneRules(an, sp, cfg.device())
	}
	return newGuard(rules, inner, points, out, cfg.Trace)
}

// pruneRules is the production rule table over the analysis an of the
// explored kernel, whose space is sp: the lint legality check, then the
// dependence, port-cap, and width collapses.
func pruneRules(an *hls.Analysis, sp *space.Space, dev *fpga.Device) []rule {
	return []rule{
		staticRule(an.Checker(), sp),
		dependRule(an.Depend()),
		accessRule(an.Access()),
		widthRule(an.Kernel(), sp, an.WidthModel(dev)),
	}
}

func (c Config) device() *fpga.Device {
	if c.Device != nil {
		return c.Device
	}
	return fpga.VU9P()
}

// newGuard returns inner behind the rule table and the identity row,
// identifying points and their class representatives in points and
// handing inner each point it must estimate together with its ID,
// counting each rule's actions into out and tracing them to tr (nil:
// untraced). It is safe for concurrent callers.
func newGuard(rules []rule, inner func(space.Point, space.ID) tuner.Result, points *space.Table, out *Outcome, tr *obs.Trace) tuner.Evaluator {
	var rejects, collapses []rule
	for _, r := range rules {
		if r.reject != nil {
			rejects = append(rejects, r)
		} else {
			collapses = append(collapses, r)
		}
	}
	// mu covers classes, seen, and the counters on out; the rules
	// themselves are read-only after construction. classes has one
	// table per collapse rule plus the identity row's, last.
	var mu sync.Mutex
	classes := make([]map[space.ID]tuner.Result, len(collapses)+1)
	for i := range classes {
		classes[i] = map[space.ID]tuner.Result{}
	}
	var seen space.IDSet
	return func(pt space.Point) tuner.Result {
		for _, r := range rejects {
			if !r.reject(pt) {
				continue
			}
			mu.Lock()
			*r.tally(out)++
			mu.Unlock()
			if tr != nil {
				tr.Event("dse", r.event, obs.Str("point", pt.Key()))
				tr.Count(r.counter, 1)
			}
			return tuner.Result{Point: pt, Objective: rejectPenalty, Minutes: pruneMinutes}
		}
		id := points.ID(pt)
		// class[i] is pt's class under row i. The production table has
		// three collapse rules and the identity row, so the array keeps
		// the slice off the heap.
		var classBuf [4]space.ID
		class := classBuf[:0]
		mu.Lock()
		for i := range classes {
			var c space.Point
			cid := id
			if i < len(collapses) {
				if c = collapses[i].canon(pt); c != nil {
					cid = points.ID(c)
				}
			}
			class = append(class, cid)
			res, ok := classes[i][cid]
			if !ok {
				continue
			}
			res.Point = pt
			if seen.Has(id) {
				res.Minutes = 0
			} else {
				// Only a collapse rule serves a first-seen point: the
				// identity row holds estimated points alone.
				seen.Add(id)
				r := collapses[i]
				*r.tally(out)++
				if tr != nil {
					key := pt.Key()
					canonical := key
					if c != nil {
						canonical = c.Key()
					}
					tr.Event("dse", r.event, obs.Str("point", key), obs.Str("canonical", canonical))
					tr.Count(r.counter, 1)
				}
			}
			for j := 0; j < i; j++ {
				classes[j][class[j]] = res
			}
			mu.Unlock()
			if i == len(collapses) && tr != nil {
				hit := tr.Begin("hls", "estimate",
					obs.Str("point", pt.Key()), obs.Str("cache", "hit"))
				hit.End(obs.F64("synth_min", 0), obs.Bool("feasible", res.Feasible))
				tr.Count("hls.cache_hits", 1)
			}
			return res
		}
		seen.Add(id)
		mu.Unlock()
		res := inner(pt, id)
		mu.Lock()
		for i, cid := range class {
			classes[i][cid] = res
		}
		mu.Unlock()
		return res
	}
}

// staticRule rejects points whose directives carry a lint error (pass
// 4). By the lint severity contract those are exactly the points the
// inner evaluator would reject anyway (Merlin annotate error or flatten
// infeasibility), so pruning never changes which designs are reachable,
// only how much virtual time illegal proposals burn.
func staticRule(chk *lint.Checker, sp *space.Space) rule {
	return rule{
		name: "static", event: "prune", counter: "dse.pruned",
		tally: func(o *Outcome) *int { return &o.StaticallyPruned },
		reject: func(pt space.Point) bool {
			d := sp.Directives(pt)
			return chk.Directives(d.Loops, d.BitWidths).HasErrors()
		},
	}
}

// loopKeys names a loop's parallel and pipeline factors in a point.
type loopKeys struct{ parallel, pipeline string }

func keysOf(id string) loopKeys {
	return loopKeys{parallel: id + ".parallel", pipeline: id + ".pipeline"}
}

// dependRule collapses parallel lanes on an unpipelined loop whose
// iterations provably contend on carried arrays onto parallel=1: the
// scheduler serializes the chain and the binder maps it onto one
// datapath instance (hls model.inertLanes). Pipelined loops never
// collapse: carried lanes there execute as a wavefront
// (Smith-Waterman's profitable design).
func dependRule(dep *depend.Analysis) rule {
	var serializing []loopKeys
	for _, id := range dep.Order {
		if dep.Serializing(id) {
			serializing = append(serializing, keysOf(id))
		}
	}
	return rule{
		name: "depend", event: "depend-collapse", counter: "dse.depend_pruned",
		tally: func(o *Outcome) *int { return &o.DependPruned },
		canon: func(pt space.Point) space.Point {
			var c space.Point
			for _, l := range serializing {
				if pt[l.pipeline] == space.PipeOffVal && pt[l.parallel] > 1 {
					if c == nil {
						c = pt.Clone()
					}
					c[l.parallel] = 1
				}
			}
			return c
		},
	}
}

// accessRule clamps parallel factors above a loop's BRAM port cap
// (internal/access PortCap: a direct accesses per iteration to a banked
// array feed at most floor(128/a) lanes) to the cap: the binder never
// instantiates lanes the ports cannot feed (hls model.laneCap). The cap
// is a property of the raw loop structure, so the rule holds for every
// pipeline mode.
func accessRule(acc *access.Analysis) rule {
	type capped struct {
		parallel string
		cap      int
	}
	var caps []capped
	for _, id := range acc.LoopOrder {
		if c := acc.PortCap(id); c > 0 {
			caps = append(caps, capped{parallel: keysOf(id).parallel, cap: c})
		}
	}
	return rule{
		name: "access", event: "access-collapse", counter: "dse.access_pruned",
		tally: func(o *Outcome) *int { return &o.AccessPruned },
		canon: func(pt space.Point) space.Point {
			var c space.Point
			for _, l := range caps {
				if pt[l.parallel] > l.cap {
					if c == nil {
						c = pt.Clone()
					}
					c[l.parallel] = l.cap
				}
			}
			return c
		},
	}
}

// widthFactor is one bit-width factor of the explored space: the
// factor, the index of its buffer in k.Params, and whether the abstract
// interpreter proved the buffer's value range (cir.Param.ValKnown).
type widthFactor struct {
	p      *space.Param
	param  int
	proven bool
}

// widthFactors returns sp's bit-width factors over kernel k, in
// sp.Params order.
func widthFactors(k *cir.Kernel, sp *space.Space) []widthFactor {
	var factors []widthFactor
	for i := range sp.Params {
		if sp.Params[i].Kind != space.FactorBitWidth {
			continue
		}
		for j, p := range k.Params {
			if p.Name == sp.Params[i].Buffer {
				factors = append(factors, widthFactor{p: &sp.Params[i], param: j, proven: p.ValKnown})
			}
		}
	}
	return factors
}

// saturatingOrds returns, for each of the factors, the ordinal of its
// narrowest domain value at which the width model reports the buffer
// saturated (hls.WidthModel.Saturates), or -1 when none does or the
// buffer's range is unproven. The other width factors sit at their
// narrowest domain values and the remaining arrays at their element
// widths; widening any of them keeps a saturated buffer saturated, so
// every domain value above the returned one is dominated on every
// design point.
func saturatingOrds(factors []widthFactor, wm *hls.WidthModel) []int {
	widths := wm.Widths()
	for _, f := range factors {
		widths[f.param] = f.p.ValueAt(0)
	}
	ords := make([]int, len(factors))
	for i, f := range factors {
		ords[i] = -1
		if !f.proven {
			continue
		}
		for ord := 0; ord < f.p.Size(); ord++ {
			widths[f.param] = f.p.ValueAt(ord)
			if wm.Saturates(widths, f.param) {
				ords[i] = ord
				break
			}
		}
		widths[f.param] = f.p.ValueAt(0)
	}
	return ords
}

// dominatedWidths counts the bit-width domain values of sp that are
// wider than their buffer's saturating width (saturatingOrds): widening
// past it cannot speed the design up, while the wider port pays more
// area. wm is k's width model.
func dominatedWidths(k *cir.Kernel, sp *space.Space, wm *hls.WidthModel) int {
	factors := widthFactors(k, sp)
	n := 0
	for i, ord := range saturatingOrds(factors, wm) {
		if ord >= 0 {
			n += factors[i].p.Size() - 1 - ord
		}
	}
	return n
}

// widthRule lowers each proven-range buffer's interface width to the
// narrowest domain value the estimator's width model
// (hls.WidthModel.Equivalent) cannot tell from it, one buffer at a time
// so every step is checked against the widths already chosen. It is
// gated on buffers whose value range the abstract interpreter proved
// (cir.Param.ValKnown), and on an untiled task loop. wm is k's width
// model.
func widthRule(k *cir.Kernel, sp *space.Space, wm *hls.WidthModel) rule {
	factors := widthFactors(k, sp)
	task := keysOf(k.TaskLoopID)
	tile := k.TaskLoopID + ".tile"
	return rule{
		name: "range", event: "collapse", counter: "dse.collapsed",
		tally: func(o *Outcome) *int { return &o.RangeCollapsed },
		canon: func(pt space.Point) space.Point {
			if len(factors) == 0 || pt[tile] > 1 {
				return nil
			}
			widths := wm.Widths()
			for _, f := range factors {
				if w, ok := pt[f.p.Name]; ok {
					widths[f.param] = w
				}
			}
			pipe := space.PipelineMode(pt[task.pipeline])
			var c space.Point
			for _, f := range factors {
				w, ok := pt[f.p.Name]
				if !f.proven || !ok {
					continue
				}
				for ord := 0; ord < f.p.Size(); ord++ {
					cand := f.p.ValueAt(ord)
					if cand >= w {
						break
					}
					if wm.Equivalent(widths, pipe, f.param, cand, w) {
						widths[f.param] = cand
						if c == nil {
							c = pt.Clone()
						}
						c[f.p.Name] = cand
						break
					}
				}
			}
			return c
		},
	}
}
