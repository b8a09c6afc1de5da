package hls_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
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

// estimateDigest hashes the full report of every design point the
// digest covers for one kernel: both seeds, seeded random points, and
// each random point with pipeline=flatten forced on every non-task loop.
// Points Merlin rejects hash their error instead. Every point is priced
// against one analysis of the base kernel, the way the DSE prices it,
// and must match the one-shot hls.Estimate of its annotation.
func estimateDigest(t *testing.T, k *cir.Kernel, tasks int64, seed int64) string {
	t.Helper()
	dev := fpga.VU9P()
	sp := space.Identify(k)
	an := hls.Analyze(k)
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
	h := sha256.New()
	for _, pt := range pts {
		ann, err := merlin.Annotate(k, sp.Directives(pt))
		if err != nil {
			fmt.Fprintf(h, "%s: %v\n", pt.Key(), err)
			continue
		}
		rep := an.Estimate(ann, dev, tasks, hls.Options{})
		if once := hls.Estimate(ann, dev, tasks, hls.Options{}); rep != once {
			t.Errorf("%s %s: shared-analysis report\n%+v\ndiffers from one-shot\n%+v",
				k.Name, pt.Key(), plainReport(rep), plainReport(once))
		}
		fmt.Fprintf(h, "%s: %+v\n", pt.Key(), plainReport(rep))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// estimateDigestTable renders one digest line per kernel: every
// workload, then a seeded sample of generated kernels.
func estimateDigestTable(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for i, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%-10s %s\n", a.Name, estimateDigest(t, k, int64(a.Tasks), int64(i+1)))
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
		fmt.Fprintf(&b, "%-10s %s\n", g.Name, estimateDigest(t, k, 512, int64(100+i)))
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
