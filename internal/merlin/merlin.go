// Package merlin reproduces the Merlin compiler transformation library that
// S2FA uses to turn design-space directives into restructured HLS C (paper
// §3.2, §4.1): loop tiling, coarse-/fine-grained parallelism (unrolling
// with automatic tree reduction for reduction loops), loop pipelining
// (on/off/flatten, where flatten fully unrolls all sub-loops), and
// off-chip buffer bit-width selection.
//
// Each transformation exists in two forms:
//
//   - Annotate: attaches the directive to the IR (cir.LoopOpt / Param
//     .BitWidth). The HLS estimator interprets annotations analytically,
//     exactly like a pragma-driven flow. The DSE, which evaluates
//     thousands of design points, runs only Annotate's validation
//     (Check) per point and hands the directives straight to the
//     estimator (hls.Analysis.Price); it annotates a kernel only for the
//     design it reports.
//   - Materialize: structurally rewrites the AST (real tiling, real
//     unrolling with remainder guards, real flattening, real tree
//     reduction). Materialized kernels execute on the cir evaluator, which
//     is how the test suite proves every transformation is
//     semantics-preserving.
package merlin

import (
	"fmt"
	"sort"

	"s2fa/internal/cir"
)

// Directives is a complete transformation request for one kernel: per-loop
// options keyed by loop ID plus per-buffer interface bit-widths keyed by
// parameter name. It is the bridge between a design point (internal/space)
// and the transformation library.
type Directives struct {
	Loops     map[string]cir.LoopOpt
	BitWidths map[string]int
}

// Clone deep-copies the directive set.
func (d Directives) Clone() Directives {
	out := Directives{Loops: map[string]cir.LoopOpt{}, BitWidths: map[string]int{}}
	//determinism:allow order-independent: copies each entry into a map, so the copy is the same in any order
	for k, v := range d.Loops {
		out.Loops[k] = v
	}
	//determinism:allow order-independent: copies each entry into a map, so the copy is the same in any order
	for k, v := range d.BitWidths {
		out.BitWidths[k] = v
	}
	return out
}

// Check validates d against k exactly as Annotate does, without copying
// anything: it is the DSE's per-point legality test, whose estimator
// prices the directives themselves (hls.Analysis.Price). Unknown loop IDs
// or parameters are reported as errors: the design space and the kernel
// must agree. Checks run in a fixed order — k's loops in preorder, then
// any unknown loop ID, then k's parameters in declaration order, then any
// unknown parameter — so a set with several errors always reports the
// same one. lint.Checker.Directives is the static verifier's view of the
// same set, which also rejects what HLS would find infeasible.
func Check(k *cir.Kernel, d Directives) error {
	known := 0
	for _, l := range k.Loops() {
		opt, ok := d.Loops[l.ID]
		if !ok {
			continue
		}
		known++
		if err := validateOpt(l, opt); err != nil {
			return err
		}
	}
	if known < len(d.Loops) {
		for _, id := range sortedKeys(d.Loops) {
			if k.FindLoop(id) == nil {
				return fmt.Errorf("merlin: directive for unknown loop %q: %w", id, ErrUnknownLoop)
			}
		}
	}
	known = 0
	for i := range k.Params {
		p := &k.Params[i]
		bw, ok := d.BitWidths[p.Name]
		if !ok {
			continue
		}
		known++
		if !p.IsArray {
			return fmt.Errorf("merlin: bit-width directive on scalar parameter %q: %w", p.Name, ErrIllegalBitWidth)
		}
		if err := validateBitWidth(bw); err != nil {
			return fmt.Errorf("merlin: parameter %q: %w", p.Name, err)
		}
	}
	if known < len(d.BitWidths) {
		for _, name := range sortedKeys(d.BitWidths) {
			if k.Param(name) == nil {
				return fmt.Errorf("merlin: bit-width directive for unknown parameter %q: %w", name, ErrUnknownParam)
			}
		}
	}
	return nil
}

// Annotate returns a clone of k with the directives attached as pragmas,
// rejecting d exactly when Check does.
func Annotate(k *cir.Kernel, d Directives) (*cir.Kernel, error) {
	if err := Check(k, d); err != nil {
		return nil, err
	}
	out := cir.CloneKernel(k)
	for _, l := range out.Loops() {
		if opt, ok := d.Loops[l.ID]; ok {
			l.Opt = opt
		}
	}
	for i := range out.Params {
		if bw, ok := d.BitWidths[out.Params[i].Name]; ok {
			out.Params[i].BitWidth = bw
		}
	}
	return out, nil
}

// Materialize returns a clone of k with the directives applied as real
// structural rewrites: tiling splits loops, parallel factors unroll bodies
// (using tree reduction for additive reduction loops), and pipeline
// flatten fully unrolls sub-loops. Pipeline on/off remains an annotation
// (it changes scheduling, not semantics).
//
// Loops are processed outermost-first so that directives target the
// original loop IDs; tiling-created inner loops get derived IDs and take
// no further directives.
// api:allow executable-rewrite oracle: merlin, lint, cir and soak tests run materialized designs against the annotated kernel
func Materialize(k *cir.Kernel, d Directives) (*cir.Kernel, error) {
	out, err := Annotate(k, d)
	if err != nil {
		return nil, err
	}
	// Stable outer-to-inner order: Loops() is preorder.
	ids := make([]string, 0, len(d.Loops))
	for _, l := range out.Loops() {
		if _, ok := d.Loops[l.ID]; ok {
			ids = append(ids, l.ID)
		}
	}
	for _, id := range ids {
		l := out.FindLoop(id)
		if l == nil {
			// The loop was dissolved by an enclosing flatten; its
			// directive is dead (paper Impediment 2: flatten invalidates
			// sub-loop factors).
			continue
		}
		opt := d.Loops[id]
		if opt.Tile > 1 {
			if err := TileLoop(out, id, opt.Tile); err != nil {
				return nil, err
			}
			l = out.FindLoop(id)
		}
		if opt.Pipeline == cir.PipeFlatten {
			if err := FlattenLoop(out, id); err != nil {
				return nil, err
			}
			l = out.FindLoop(id)
		}
		if opt.Parallel > 1 && l != nil {
			if err := UnrollLoop(out, id, opt.Parallel); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func validateOpt(l *cir.Loop, opt cir.LoopOpt) error {
	tc := l.TripCount()
	if opt.Tile < 0 || opt.Parallel < 0 {
		return fmt.Errorf("merlin: loop %s: negative factor: %w", l.ID, ErrIllegalFactor)
	}
	if tc > 0 {
		if int64(opt.Tile) > tc {
			return fmt.Errorf("merlin: loop %s: tile factor %d exceeds trip count %d: %w", l.ID, opt.Tile, tc, ErrIllegalFactor)
		}
		if int64(opt.Parallel) > tc {
			return fmt.Errorf("merlin: loop %s: parallel factor %d exceeds trip count %d: %w", l.ID, opt.Parallel, tc, ErrIllegalFactor)
		}
	}
	return nil
}

func validateBitWidth(bw int) error {
	if bw < 8 || bw > 512 {
		return fmt.Errorf("bit-width %d outside (8, 512]: %w", bw, ErrIllegalBitWidth)
	}
	if bw&(bw-1) != 0 {
		return fmt.Errorf("bit-width %d is not a power of two: %w", bw, ErrIllegalBitWidth)
	}
	return nil
}

// replaceLoop substitutes loop id in the kernel body with the given
// statements.
func replaceLoop(k *cir.Kernel, id string, repl []cir.Stmt) bool {
	var walk func(b cir.Block) (cir.Block, bool)
	walk = func(b cir.Block) (cir.Block, bool) {
		for i, s := range b {
			switch s := s.(type) {
			case *cir.Loop:
				if s.ID == id {
					out := make(cir.Block, 0, len(b)-1+len(repl))
					out = append(out, b[:i]...)
					out = append(out, repl...)
					out = append(out, b[i+1:]...)
					return out, true
				}
				if nb, ok := walk(s.Body); ok {
					s.Body = nb
					return b, true
				}
			case *cir.If:
				if nb, ok := walk(s.Then); ok {
					s.Then = nb
					return b, true
				}
				if nb, ok := walk(s.Else); ok {
					s.Else = nb
					return b, true
				}
			case *cir.While:
				if nb, ok := walk(s.Body); ok {
					s.Body = nb
					return b, true
				}
			}
		}
		return b, false
	}
	nb, ok := walk(k.Body)
	if ok {
		k.Body = nb
	}
	return ok
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	//determinism:allow order-independent: the keys are sorted before they are returned
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
