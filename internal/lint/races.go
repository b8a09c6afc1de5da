package lint

import (
	"fmt"
	"strings"

	"s2fa/internal/depend"
)

// Pass 3: parallel-safety race detection.
//
// A parallel (unroll) directive duplicates the loop body across lanes. If
// the loop carries a dependence across iterations that is not a
// recognized reduction form, the lanes contend on shared state: the
// transformation is still semantics-preserving (Merlin serializes the
// chain), but the requested hardware parallelism is a lie. The HLS
// estimator models exactly this by serializing carried lanes, so the
// design stays *feasible* — which is why race findings are warnings, not
// errors: pruning them would discard legal (if wasteful, or — for
// wavefront codes like Smith-Waterman — even profitable) designs.
//
// The pass is a shadow of the exact dependence verdicts in
// internal/depend: EffectiveRace supplies the carried arrays (with the
// reduce-output exemption applied) and ScalarSeq the non-reducible scalar
// recurrences. The depend apps-agreement test pins these to cir's
// conservative heuristic on every workload, which keeps the warning text
// byte-identical to the pre-verdict implementation.

// raceDetail describes the loop's carried dependence that is not covered
// by the reduction transform, or "" when parallel lanes are
// race-free/reducible, reading straight off the dependence verdicts.
func raceDetail(dep *depend.Analysis, id string) string {
	v := dep.Verdict(id)
	if v == nil {
		return ""
	}
	var parts []string
	if eff := dep.EffectiveRace(id); len(eff) > 0 {
		parts = append(parts, fmt.Sprintf("carried array dependence through %s", strings.Join(eff, ", ")))
	}
	if len(v.ScalarSeq) > 0 {
		parts = append(parts, fmt.Sprintf("scalar recurrence on %s not in reduction form", strings.Join(v.ScalarSeq, ", ")))
	}
	return strings.Join(parts, "; ")
}
