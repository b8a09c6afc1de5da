package lint

import "s2fa/internal/cir"

// PostTransform runs the passes that stay meaningful after Merlin has
// materialized directives into the AST: structural invariants, dataflow,
// and bounds. The legality pass is skipped deliberately — materialization
// consumes factor directives but leaves the annotations in place as a
// record (an unrolled loop keeps Opt.Parallel while its residual trip
// count shrinks), so re-checking them against the rewritten loops would
// reject records of legal, already-applied transforms.
func PostTransform(k *cir.Kernel) Findings {
	var fs Findings
	fs = append(fs, CheckStructure(k)...)
	fs = append(fs, checkDataflow(k)...)
	fs = append(fs, checkBounds(k)...)
	fs.Sort()
	return fs
}
