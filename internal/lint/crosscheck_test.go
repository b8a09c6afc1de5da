package lint_test

import (
	"errors"
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/lint"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

// TestLintErrorsShadowDynamicRejection enforces the severity contract the
// DSE pruner depends on: every design point the verifier rejects with an
// error must also be rejected dynamically — merlin.Check and Annotate
// fail, or HLS estimation reports the point infeasible. If lint errors on
// a point the toolchain would happily build, pruning would silently
// discard feasible designs (a false positive), which is the one failure
// mode the verifier must never have.
//
// Points are drawn per app: seeded random samples, plus a forced
// pipeline=flatten variant per loop (flatten legality is the rule with
// real structure behind it — S-W's while-loop traceback).
func TestLintErrorsShadowDynamicRejection(t *testing.T) {
	const samplesPerApp = 60
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			k, err := a.Kernel()
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			sp := space.Identify(k)
			chk := lint.NewChecker(k)
			rng := rand.New(rand.NewSource(42))

			var pts []space.Point
			for i := 0; i < samplesPerApp; i++ {
				pts = append(pts, sp.RandomPoint(rng))
			}
			// Force flatten onto each loop in turn, on top of a random
			// point, so flatten legality is exercised for every nest.
			for i := range sp.Params {
				p := &sp.Params[i]
				if p.Kind != space.FactorPipeline {
					continue
				}
				pt := sp.RandomPoint(rng)
				pt[p.Name] = space.PipeFlattenVal
				pts = append(pts, pt)
			}

			// Out-of-domain variants: oversized parallel factors and a
			// non-power-of-two bit-width. These never come from the DSE
			// (the space clamps its domains) but the -lint CLI and manual
			// directive files can produce them, and they must hit the
			// same wall at annotation time — and at the DSE's clone-free
			// merlin.Check, which must reject exactly what Annotate does.
			outOfDomain := len(pts)
			for i := range sp.Params {
				p := &sp.Params[i]
				pt := sp.RandomPoint(rng)
				switch p.Kind {
				case space.FactorParallel:
					pt[p.Name] = p.Max * 2
				case space.FactorBitWidth:
					pt[p.Name] = 48
				default:
					continue
				}
				pts = append(pts, pt)
			}

			lintRejected, dynChecked := 0, 0
			for i, pt := range pts {
				d := sp.Directives(pt)
				if i >= outOfDomain {
					_, aerr := merlin.Annotate(k, d)
					cerr := merlin.Check(k, d)
					if (cerr == nil) != (aerr == nil) || legalityClass(cerr) != legalityClass(aerr) {
						t.Errorf("Check and Annotate disagree on out-of-domain point %v:\nCheck:    %v\nAnnotate: %v", pt, cerr, aerr)
					}
				}
				fs := chk.Directives(d.Loops, d.BitWidths)
				if !fs.HasErrors() {
					continue
				}
				lintRejected++
				ann, err := merlin.Annotate(k, d)
				if err != nil {
					continue // rejected at annotation: contract holds
				}
				dynChecked++
				rep := hls.Estimate(ann, fpga.VU9P(), int64(a.Tasks), hls.Options{})
				if rep.Feasible {
					t.Errorf("false positive: lint rejects point but Annotate and HLS both accept it\npoint: %v\nfindings:\n%s",
						pt, fs.Errors())
				}
			}
			t.Logf("%s: %d/%d points lint-rejected (%d survived to HLS check)",
				a.Name, lintRejected, len(pts), dynChecked)
		})
	}
}

// legalityClass returns the typed merlin legality sentinel err wraps, or
// nil when err is not a legality rejection.
func legalityClass(err error) error {
	for _, e := range []error{
		merlin.ErrUnknownLoop, merlin.ErrUnknownParam, merlin.ErrIllegalFactor,
		merlin.ErrNonConstantTrip, merlin.ErrIllegalBitWidth,
	} {
		if errors.Is(err, e) {
			return e
		}
	}
	return nil
}
