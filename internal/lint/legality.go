package lint

import (
	"fmt"
	"sort"

	"s2fa/internal/cir"
)

// Pass 4: transform/pragma legality.
//
// Directives checks a complete directive set (per-loop options + buffer
// bit-widths — the same shape a design point lowers to) against the
// cached kernel analysis and reports:
//
//	error  unknown-loop / unknown-param    directive targets nothing
//	error  illegal-factor                  negative, or factor > trip count
//	warn   factor-eq-trip                  factor == trip (legal full unroll)
//	error  flatten-variable-trip           a sub-loop has no constant trip
//	warn   flatten-carried                 a sub-loop carries a non-reduction dependence
//	warn   flatten-leaf                    flatten on a loop with no sub-loops
//	error  illegal-bitwidth                outside (8,512] or not a power of two,
//	                                       or targeting a scalar parameter
//	warn   bitwidth-narrowing              below the element's natural width
//	warn   parallel-race                   pass 3 result for the requested factors
//
// The error set is deliberately the exact static shadow of the dynamic
// rejection paths (merlin.Check validation + the HLS estimator's
// flatten infeasibility): the DSE may prune on errors without ever
// discarding a design the pipeline would have accepted.
func (c *Checker) Directives(loops map[string]cir.LoopOpt, bws map[string]int) Findings {
	var fs Findings
	ids := make([]string, 0, len(loops))
	for id := range loops {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		opt := loops[id]
		li := c.info.ByID[id]
		if li == nil {
			fs = append(fs, Finding{
				Rule: RuleUnknownLoop, Sev: SevError, Kernel: c.k.Name, LoopID: id,
				Detail: "directive targets a loop the kernel does not contain",
			})
			continue
		}
		fs = append(fs, c.checkFactor(li, "tile", opt.Tile)...)
		fs = append(fs, c.checkFactor(li, "parallel", opt.Parallel)...)
		if opt.Parallel > 1 {
			if d, ok := c.race[id]; ok {
				fs = append(fs, Finding{
					Rule: RuleParallelRace, Sev: SevWarn, Kernel: c.k.Name, LoopID: id,
					Detail: fmt.Sprintf("parallel %d lanes race: %s (lanes serialize; no speedup unless wavefront)", opt.Parallel, d),
				})
			}
		}
		if opt.Pipeline == cir.PipeFlatten {
			fs = append(fs, c.checkFlatten(li)...)
		}
	}
	names := make([]string, 0, len(bws))
	for name := range bws {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fs = append(fs, c.checkBitWidth(name, bws[name])...)
	}
	fs.Sort()
	return fs
}

func (c *Checker) checkFactor(li *cir.LoopInfo, kind string, f int) Findings {
	if f < 0 {
		return Findings{{
			Rule: RuleIllegalFactor, Sev: SevError, Kernel: c.k.Name, LoopID: li.Loop.ID,
			Detail: fmt.Sprintf("negative %s factor %d", kind, f),
		}}
	}
	if li.Trip <= 0 || f <= 1 {
		return nil
	}
	if int64(f) > li.Trip {
		return Findings{{
			Rule: RuleIllegalFactor, Sev: SevError, Kernel: c.k.Name, LoopID: li.Loop.ID,
			Detail: fmt.Sprintf("%s factor %d exceeds trip count %d", kind, f, li.Trip),
		}}
	}
	if int64(f) == li.Trip {
		return Findings{{
			Rule: RuleFactorEqTrip, Sev: SevWarn, Kernel: c.k.Name, LoopID: li.Loop.ID,
			Detail: fmt.Sprintf("%s factor %d equals the trip count (degenerates to a full unroll)", kind, f),
		}}
	}
	return nil
}

func (c *Checker) checkFlatten(li *cir.LoopInfo) Findings {
	id := li.Loop.ID
	if d, ok := c.flattenVarTrip[id]; ok {
		return Findings{{
			Rule: RuleFlattenVarTrip, Sev: SevError, Kernel: c.k.Name, LoopID: id,
			Detail: fmt.Sprintf("pipeline flatten requires fully unrolling all sub-loops, but %s", d),
		}}
	}
	var fs Findings
	if d, ok := c.flattenCarried[id]; ok {
		fs = append(fs, Finding{
			Rule: RuleFlattenCarried, Sev: SevWarn, Kernel: c.k.Name, LoopID: id,
			Detail: fmt.Sprintf("flatten unrolls a dependence chain serially: %s", d),
		})
	}
	if len(li.Children) == 0 {
		fs = append(fs, Finding{
			Rule: RuleFlattenLeaf, Sev: SevWarn, Kernel: c.k.Name, LoopID: id,
			Detail: "flatten on a leaf loop has no sub-loops to unroll (plain pipelining)",
		})
	}
	return fs
}

func (c *Checker) checkBitWidth(name string, bw int) Findings {
	p := c.k.Param(name)
	if p == nil {
		return Findings{{
			Rule: RuleUnknownParam, Sev: SevError, Kernel: c.k.Name, Where: name,
			Detail: "bit-width directive targets a parameter the kernel does not declare",
		}}
	}
	if !p.IsArray {
		return Findings{{
			Rule: RuleIllegalWidth, Sev: SevError, Kernel: c.k.Name, Where: name,
			Detail: "bit-width directive on a scalar parameter (only array buffers have an interface width)",
		}}
	}
	if bw < 8 || bw > 512 || bw&(bw-1) != 0 {
		return Findings{{
			Rule: RuleIllegalWidth, Sev: SevError, Kernel: c.k.Name, Where: name,
			Detail: fmt.Sprintf("bit-width %d outside the legal set {2^n : 8 < 2^n <= 512}", bw),
		}}
	}
	if eb := p.Elem.Bits(); bw < eb {
		return Findings{{
			Rule: RuleNarrowWidth, Sev: SevWarn, Kernel: c.k.Name, Where: name,
			Detail: fmt.Sprintf("interface width %d is below the %d-bit element value range (sub-element packing)", bw, eb),
		}}
	}
	return nil
}
