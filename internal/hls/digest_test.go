package hls_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/estimate_digests.golden")

// digestRandomPoints is the number of seeded random design points each
// kernel contributes (each also yields a flatten-forced variant).
const digestRandomPoints = 100

// plainReport strips Report's String method so %+v prints every field.
type plainReport hls.Report

// digestPoints returns the design points the digest covers for one
// kernel: both seeds, seeded random points, and each random point with
// pipeline=flatten forced on every non-task loop.
func digestPoints(k *cir.Kernel, sp *space.Space, seed int64) []space.Point {
	pts := []space.Point{sp.PerformanceSeed(), sp.AreaSeed()}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < digestRandomPoints; i++ {
		pt := sp.RandomPoint(rng)
		flat := make(space.Point, len(pt))
		for name, v := range pt {
			flat[name] = v
		}
		for i := range sp.Params {
			p := &sp.Params[i]
			if p.Kind == space.FactorPipeline && p.LoopID != k.TaskLoopID {
				flat[p.Name] = space.PipeFlattenVal
			}
		}
		pts = append(pts, pt, flat)
	}
	return pts
}

// estimateDigest hashes the full report of every digest point of one
// kernel; points Merlin rejects hash their error instead. Every point is
// priced the way the DSE prices it — merlin.Check, then Analysis.Price
// of its directives against one analysis of the base kernel — and must
// match the one-shot hls.Estimate of its annotation, with Check
// rejecting exactly the points Annotate rejects, for the same reason.
func estimateDigest(t *testing.T, k *cir.Kernel, tasks int64, seed int64) string {
	t.Helper()
	dev := fpga.VU9P()
	sp := space.Identify(k)
	an := hls.Analyze(k)
	h := sha256.New()
	for _, pt := range digestPoints(k, sp, seed) {
		d := sp.Directives(pt)
		ann, err := merlin.Annotate(k, d)
		if cerr := merlin.Check(k, d); (cerr == nil) != (err == nil) || legalityClass(cerr) != legalityClass(err) {
			t.Errorf("%s %s: Check = %v, Annotate = %v", k.Name, pt.Key(), cerr, err)
		}
		if err != nil {
			fmt.Fprintf(h, "%s: %v\n", pt.Key(), err)
			continue
		}
		opts, widths := an.Directives(d)
		rep := an.Price(opts, widths, dev, tasks, hls.Options{})
		if once := hls.Estimate(ann, dev, tasks, hls.Options{}); rep != once {
			t.Errorf("%s %s: priced report\n%+v\ndiffers from one-shot\n%+v",
				k.Name, pt.Key(), plainReport(rep), plainReport(once))
		}
		fmt.Fprintf(h, "%s: %+v\n", pt.Key(), plainReport(rep))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// digestKernel is one kernel the digest and the pricing properties
// cover, with its batch size and point seed.
type digestKernel struct {
	name  string
	k     *cir.Kernel
	tasks int64
	seed  int64
}

// digestKernels returns every workload, then a seeded sample of
// generated kernels.
func digestKernels(t *testing.T) []digestKernel {
	t.Helper()
	var out []digestKernel
	for i, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, digestKernel{a.Name, k, int64(a.Tasks), int64(i + 1)})
	}
	for i, g := range kdslgen.Generate(12, 48) {
		cls, err := kdsl.CompileSource(g.Source)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		k, err := b2c.Compile(cls)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		out = append(out, digestKernel{g.Name, k, 512, int64(100 + i)})
	}
	return out
}

// estimateDigestTable renders one digest line per digest kernel.
func estimateDigestTable(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, dk := range digestKernels(t) {
		fmt.Fprintf(&b, "%-10s %s\n", dk.name, estimateDigest(t, dk.k, dk.tasks, dk.seed))
	}
	return b.String()
}

// TestEstimateDigestGolden pins the exact report hls.Estimate returns
// for every kernel and sampled point. A refactor of the estimator or
// of the analyses it reads must keep this file byte-identical; a
// deliberate cost-model change reruns with -update and says why.
func TestEstimateDigestGolden(t *testing.T) {
	got := estimateDigestTable(t)
	const path = "testdata/estimate_digests.golden"
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("estimate digests drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// TestPriceFiniteAndPure checks two cost-model properties on every
// accepted digest point: every float field of the report is finite, and
// Price is a pure function of its slices — pricing them twice gives the
// identical report and leaves the slices as they were.
func TestPriceFiniteAndPure(t *testing.T) {
	dev := fpga.VU9P()
	for _, dk := range digestKernels(t) {
		sp := space.Identify(dk.k)
		an := hls.Analyze(dk.k)
		for _, pt := range digestPoints(dk.k, sp, dk.seed) {
			d := sp.Directives(pt)
			if merlin.Check(dk.k, d) != nil {
				continue
			}
			opts, widths := an.Directives(d)
			opts0, widths0 := slices.Clone(opts), slices.Clone(widths)
			rep := an.Price(opts, widths, dev, dk.tasks, hls.Options{})
			v := reflect.ValueOf(rep)
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i); f.Kind() == reflect.Float64 && (math.IsNaN(f.Float()) || math.IsInf(f.Float(), 0)) {
					t.Errorf("%s %s: %s = %v", dk.name, pt.Key(), v.Type().Field(i).Name, f.Float())
				}
			}
			if again := an.Price(opts, widths, dev, dk.tasks, hls.Options{}); again != rep {
				t.Errorf("%s %s: repriced report\n%+v\ndiffers from the first\n%+v",
					dk.name, pt.Key(), plainReport(again), plainReport(rep))
			}
			if !slices.Equal(opts, opts0) || !slices.Equal(widths, widths0) {
				t.Errorf("%s %s: Price wrote to its option or width slice", dk.name, pt.Key())
			}
		}
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
