package space

import (
	"s2fa/internal/cir"
	"s2fa/internal/lint"
)

// PruneStatic returns a copy of s with statically-illegal parameter
// values removed, plus the number of domain values pruned. A value is
// removed only when the static verifier (internal/lint) reports an
// *error* for every point carrying it — i.e. the downstream pipeline
// (merlin validation or the HLS flatten-infeasibility rule) would reject
// those points anyway. This is the AutoDSE-style observation that a
// compiler can reject in microseconds what the tuner would otherwise pay
// virtual synthesis minutes to discover:
//
//   - pipeline=flatten is dropped for loops whose subtree contains a
//     variable-trip sub-loop (counted with symbolic bounds, or a general
//     while — e.g. the Smith-Waterman traceback), since flatten requires
//     fully unrolling all sub-loops (paper §4.1);
//   - tile/parallel factors above a loop's constant trip count are
//     dropped (Identify already sizes domains to [1, TC), so this only
//     fires for spaces built or restricted by hand).
//
// Per-value legality is checked in isolation, which is sound because the
// lint error rules are single-parameter predicates: they never depend on
// the values of other parameters. chk is the checker of the kernel s
// was identified from.
func PruneStatic(s *Space, chk *lint.Checker) (*Space, int) {
	var cons []Constraint
	removed := 0
	for i := range s.Params {
		p := &s.Params[i]
		switch p.Kind {
		case FactorPipeline:
			ord := p.Ordinal(PipeFlattenVal)
			if ord < 0 || ord != p.Size()-1 {
				continue // flatten not in the domain (or not last: keep)
			}
			fs := chk.Directives(map[string]cir.LoopOpt{p.LoopID: {Pipeline: cir.PipeFlatten}}, nil)
			if fs.HasErrors() {
				cons = append(cons, Constraint{Param: p.Name, LoOrd: 0, HiOrd: ord - 1})
				removed++
			}
		case FactorTile, FactorParallel:
			li := chk.Info().ByID[p.LoopID]
			if li == nil || li.Trip <= 0 || p.Enum != nil {
				continue
			}
			if int64(p.Max) > li.Trip {
				hi := p.Ordinal(int(li.Trip))
				if hi < 0 {
					continue
				}
				removed += p.Size() - 1 - hi
				cons = append(cons, Constraint{Param: p.Name, LoOrd: 0, HiOrd: hi})
			}
		}
	}
	if removed == 0 {
		return s, 0
	}
	out, err := Restrict(s, cons)
	if err != nil {
		// A constraint emptied a domain (cannot happen for the rules
		// above: flatten is never the only pipeline mode, and factor 1 is
		// always legal). Fall back to the unpruned space.
		return s, 0
	}
	return out, removed
}
