package core

import (
	"fmt"
	"math"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/ccache"
	"s2fa/internal/dse"
)

// outcomeKey serializes the DSE outcome fields of the determinism
// contract so "byte-identical trajectory" is checked literally.
func outcomeKey(o *dse.Outcome) string {
	s := fmt.Sprintf("evals=%d stop=%s total=%b best=%s/%b prune=%d/%d dep=%d acc=%d collapse=%d/%d\n",
		o.Evaluations, o.StopReason, math.Float64bits(o.TotalMinutes),
		o.Best.Point.Key(), math.Float64bits(o.Best.Objective),
		o.StaticallyPruned, o.PrunedDomainValues, o.DependPruned, o.AccessPruned,
		o.RangeCollapsed, o.RangeRestrictedValues)
	for _, p := range o.Trajectory {
		s += fmt.Sprintf("  %b %b\n", math.Float64bits(p.Minutes), math.Float64bits(p.Objective))
	}
	return s
}

// TestCachedBuildByteIdentical is the acceptance property of the
// compile cache: an S-W seed-42 build served from the cache (cache
// miss, then source memo hit; the DSE analyzes the cached kernel like a
// fresh one) produces byte-identical artifacts and a byte-identical DSE
// trajectory to a fresh, cache-less build.
func TestCachedBuildByteIdentical(t *testing.T) {
	app := apps.Get("S-W")
	build := func(fw *Framework) *Build {
		fw.Seed = 42
		fw.Tasks = 512
		b, err := fw.BuildFromSource(app.Source)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	fresh := build(New())

	fw := New()
	fw.Cache = ccache.New()
	miss := build(fw)
	hit := build(fw)

	st := fw.Cache.Stats()
	if st.Misses != 1 || st.SourceHits != 1 {
		t.Fatalf("cache stats: misses=%d sourceHits=%d, want 1 and 1", st.Misses, st.SourceHits)
	}

	for _, tc := range []struct {
		name string
		b    *Build
	}{{"miss", miss}, {"hit", hit}} {
		if got, want := tc.b.HLSSource(), fresh.HLSSource(); got != want {
			t.Errorf("%s: HLS source differs from fresh build", tc.name)
		}
		if got, want := tc.b.BestHLSSource(), fresh.BestHLSSource(); got != want {
			t.Errorf("%s: best-design HLS source differs from fresh build", tc.name)
		}
		if got, want := outcomeKey(tc.b.Outcome), outcomeKey(fresh.Outcome); got != want {
			t.Errorf("%s: DSE trajectory differs from fresh build:\ngot:\n%swant:\n%s", tc.name, got, want)
		}
	}

	// Deploy through the cache path: the purity gate is pre-seeded from
	// the cached facts and registration must still succeed.
	mgr := blaze.NewManager(fw.Device)
	if err := fw.Deploy(hit, mgr); err != nil {
		t.Fatalf("deploy with cache: %v", err)
	}
}
