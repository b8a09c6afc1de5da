// Package lint is the kernel static verifier: a multi-pass analyzer over
// the cir HLS-C IR that catches compiler bugs at generation time and
// rejects statically-illegal design points before they cost virtual
// synthesis minutes.
//
// S2FA's design-space identification (paper §4.1) is fundamentally a
// static-analysis step — loop trip counts, affine strides, and
// loop-carried dependences decide which Merlin transformations are even
// legal. This package makes those legality facts first-class:
//
//	pass 1  def-before-use / uninitialized-read dataflow  (dataflow.go)
//	pass 2  array bounds via interval analysis            (bounds.go)
//	pass 3  parallel-safety race detection                (races.go)
//	pass 4  transform/pragma legality                     (legality.go)
//	pass 5  post-transform structural invariants          (structure.go)
//	pass 6  access-pattern gather advisory                (access.go)
//
// Findings carry a rule ID, a severity, and a location. Severities follow
// a strict contract that the cross-check tests enforce: an Error is
// raised only for configurations the downstream pipeline provably rejects
// too (merlin.Check error or an HLS-infeasible verdict), so pruning on
// lint errors can never discard a feasible design. Everything that merely
// degrades quality — a carried dependence that serializes the requested
// parallel lanes, a bit-width below the element's value range — is a
// Warn.
//
// Consumers: internal/b2c gates code generation on lint errors,
// internal/space and internal/dse prune the design space with pass 4,
// through the one Checker per kernel that hls.Analyze builds, and
// cmd/s2fa exposes everything via -lint.
package lint

import (
	"fmt"
	"sort"
	"strings"

	"s2fa/internal/cir"
	"s2fa/internal/depend"
)

// Severity classifies a finding.
type Severity uint8

// Severity levels. SevError marks configurations the toolchain must
// reject; SevWarn marks legal-but-suspect ones.
const (
	SevWarn Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Rule identifiers. Each lint pass reports under a fixed set of IDs so
// consumers (merlin's typed errors, the DSE pruner, golden tests) can
// dispatch on them.
const (
	RuleUndefinedVar   = "undefined-variable"    // pass 1, error
	RuleUninitRead     = "uninitialized-read"    // pass 1, warn (JVM zero-init)
	RuleArrayBounds    = "array-bounds"          // pass 2, error if provable, warn if possible
	RuleParallelRace   = "parallel-race"         // pass 3, warn (HLS serializes, never rejects)
	RuleIllegalFactor  = "illegal-factor"        // pass 4, error (> trip or negative)
	RuleFactorEqTrip   = "factor-eq-trip"        // pass 4, warn (legal but fully unrolls)
	RuleFlattenVarTrip = "flatten-variable-trip" // pass 4, error (matches HLS infeasibility)
	RuleFlattenCarried = "flatten-carried"       // pass 4, warn
	RuleFlattenLeaf    = "flatten-leaf"          // pass 4, warn (no sub-loops to unroll)
	RuleIllegalWidth   = "illegal-bitwidth"      // pass 4, error (mirrors merlin validation)
	RuleNarrowWidth    = "bitwidth-narrowing"    // pass 4, warn
	RuleUnknownLoop    = "unknown-loop"          // pass 4, error
	RuleUnknownParam   = "unknown-param"         // pass 4, error
	RuleDupLoopID      = "duplicate-loop-id"     // pass 5, error
	RuleDupLocal       = "duplicate-local"       // pass 5, error
	RuleShadowedLocal  = "shadowed-local"        // pass 5, warn
	RuleLoopVarWrite   = "loop-var-write"        // pass 5, error
	RuleBadStep        = "bad-step"              // pass 5, error
	RuleMissingTask    = "missing-task-loop"     // pass 5, error
	RuleGatherAccess   = "gather-access"         // pass 6, warn (sourced advisory)
)

// Finding is one diagnostic produced by a lint pass.
type Finding struct {
	Rule   string
	Sev    Severity
	Kernel string
	LoopID string // owning loop, if any
	Where  string // statement/expression context, if any
	Detail string // human rationale in the paper's §3.3/§4.1 language
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", f.Sev, f.Rule)
	if f.Kernel != "" {
		fmt.Fprintf(&b, " %s", f.Kernel)
	}
	if f.LoopID != "" {
		fmt.Fprintf(&b, " loop %s", f.LoopID)
	}
	if f.Where != "" {
		fmt.Fprintf(&b, " at %s", f.Where)
	}
	fmt.Fprintf(&b, ": %s", f.Detail)
	return b.String()
}

// Findings is an ordered diagnostic list.
type Findings []Finding

// HasErrors reports whether any finding has error severity.
func (fs Findings) HasErrors() bool {
	for _, f := range fs {
		if f.Sev == SevError {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity findings.
func (fs Findings) Errors() Findings {
	var out Findings
	for _, f := range fs {
		if f.Sev == SevError {
			out = append(out, f)
		}
	}
	return out
}

// Warnings returns only the warn-severity findings.
func (fs Findings) Warnings() Findings {
	var out Findings
	for _, f := range fs {
		if f.Sev != SevError {
			out = append(out, f)
		}
	}
	return out
}

// Sort orders findings deterministically: errors first, then by rule,
// loop, location, and detail.
func (fs Findings) Sort() {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Sev != b.Sev {
			return a.Sev > b.Sev // errors (1) before warnings (0)
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.LoopID != b.LoopID {
			return a.LoopID < b.LoopID
		}
		if a.Where != b.Where {
			return a.Where < b.Where
		}
		return a.Detail < b.Detail
	})
}

func (fs Findings) String() string {
	if len(fs) == 0 {
		return "no findings"
	}
	lines := make([]string, len(fs))
	for i, f := range fs {
		lines[i] = f.String()
	}
	return strings.Join(lines, "\n")
}

// Lint runs every pass over the kernel as-is: dataflow, bounds, and
// structure examine the AST; races and legality examine the directives
// already annotated on it (Loop.Opt, Param.BitWidth). This is what the
// b2c gate and the post-transform invariant checks call.
func Lint(k *cir.Kernel) Findings {
	c := NewChecker(k)
	var fs Findings
	fs = append(fs, CheckStructure(k)...)
	fs = append(fs, checkDataflow(k)...)
	fs = append(fs, checkBounds(k)...)
	fs = append(fs, c.Directives(annotatedLoops(k), annotatedWidths(k))...)
	fs = append(fs, checkAccess(k)...)
	fs.Sort()
	return fs
}

// annotatedLoops collects the non-zero loop directives already attached to
// the kernel.
func annotatedLoops(k *cir.Kernel) map[string]cir.LoopOpt {
	out := map[string]cir.LoopOpt{}
	for _, l := range k.Loops() {
		if l.Opt != (cir.LoopOpt{}) {
			out[l.ID] = l.Opt
		}
	}
	return out
}

// annotatedWidths collects the non-default interface widths already
// attached to the kernel.
func annotatedWidths(k *cir.Kernel) map[string]int {
	out := map[string]int{}
	for _, p := range k.Params {
		if p.BitWidth != 0 {
			out[p.Name] = p.BitWidth
		}
	}
	return out
}

// Checker caches the kernel analysis (loop tree, trip counts, carried
// dependences) so the per-point legality pass is cheap enough to run on
// every DSE proposal.
type Checker struct {
	k    *cir.Kernel
	info *cir.KernelInfo
	dep  *depend.Analysis
	// flattenVarTrip maps loop ID to the offending sub-loop description
	// when flatten is statically impossible (a sub-loop without a constant
	// trip count — counted with symbolic bounds, or a general while).
	flattenVarTrip map[string]string
	// flattenCarried maps loop ID to a description of carried sub-loops
	// that flatten would unroll into a serial dependence chain.
	flattenCarried map[string]string
	// race maps loop ID to a description of the carried dependence that is
	// not a recognized reduction form, if any.
	race map[string]string
}

// NewChecker analyzes k once and returns a reusable legality checker.
func NewChecker(k *cir.Kernel) *Checker {
	dep := depend.Analyze(k)
	c := &Checker{
		k:              k,
		info:           dep.Info,
		dep:            dep,
		flattenVarTrip: map[string]string{},
		flattenCarried: map[string]string{},
		race:           map[string]string{},
	}
	for _, li := range c.info.All {
		if d := raceDetail(c.dep, li.Loop.ID); d != "" {
			c.race[li.Loop.ID] = d
		}
	}
	for _, li := range c.info.All {
		if d := subLoopVarTrip(li); d != "" {
			c.flattenVarTrip[li.Loop.ID] = d
		} else if d := whileInSubtree(li.Loop.Body); d != "" {
			c.flattenVarTrip[li.Loop.ID] = d
		}
		if d := c.subLoopCarried(li); d != "" {
			c.flattenCarried[li.Loop.ID] = d
		}
	}
	return c
}

// Info exposes the cached kernel analysis.
func (c *Checker) Info() *cir.KernelInfo { return c.info }

// Depend exposes the cached exact dependence analysis so downstream
// consumers (HLS estimation and DSE pruning, through hls.Analyze) reuse
// one computation per kernel.
func (c *Checker) Depend() *depend.Analysis { return c.dep }

// subLoopVarTrip reports a descendant counted loop without a constant
// trip count, which makes flatten (full sub-loop unrolling, paper §4.1)
// statically impossible.
func subLoopVarTrip(li *cir.LoopInfo) string {
	for _, ch := range li.Children {
		if ch.Trip <= 0 {
			return fmt.Sprintf("sub-loop %s has a non-constant trip count", ch.Loop.ID)
		}
		if d := subLoopVarTrip(ch); d != "" {
			return d
		}
	}
	return ""
}

// whileInSubtree reports a general while loop anywhere in the block: a
// variable-trip region no unroller can flatten.
func whileInSubtree(b cir.Block) string {
	var found string
	var walk func(b cir.Block)
	walk = func(b cir.Block) {
		for _, s := range b {
			if found != "" {
				return
			}
			switch s := s.(type) {
			case *cir.While:
				found = fmt.Sprintf("subtree contains a variable-trip while loop (cond %s)", cir.ExprString(s.Cond))
			case *cir.Loop:
				walk(s.Body)
			case *cir.If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(b)
	return found
}

// subLoopCarried reports a descendant loop whose carried dependence is
// not a recognized reduction form: flattening unrolls it into a serial
// chain, so the fine-grained pipeline gains little.
func (c *Checker) subLoopCarried(li *cir.LoopInfo) string {
	for _, ch := range li.Children {
		if d, ok := c.race[ch.Loop.ID]; ok {
			return fmt.Sprintf("sub-loop %s: %s", ch.Loop.ID, d)
		}
		if d := c.subLoopCarried(ch); d != "" {
			return d
		}
	}
	return ""
}
