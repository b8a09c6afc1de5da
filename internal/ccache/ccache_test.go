package ccache

import (
	"sync"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/kdsl"
	"s2fa/internal/obs"
)

// TestCachedMatchesFresh is the core soundness claim: for every
// workload, the entry served by the cache — on the miss, on the source
// hit, and on a semantic hit — renders byte-identical HLS C to a fresh
// uncached compile.
func TestCachedMatchesFresh(t *testing.T) {
	c := New()
	for _, app := range apps.All() {
		cls, err := kdsl.CompileSource(app.Source)
		if err != nil {
			t.Fatalf("%s: frontend: %v", app.Name, err)
		}
		fresh, err := b2c.Compile(cls)
		if err != nil {
			t.Fatalf("%s: fresh b2c: %v", app.Name, err)
		}
		freshC := cir.Print(fresh)

		_, miss, err := c.CompileSource(app.Source, nil)
		if err != nil {
			t.Fatalf("%s: cached compile: %v", app.Name, err)
		}
		_, hit, err := c.CompileSource(app.Source, nil)
		if err != nil {
			t.Fatalf("%s: cache hit: %v", app.Name, err)
		}
		if hit != miss {
			t.Fatalf("%s: source hit returned a different entry", app.Name)
		}
		if got := cir.Print(hit.Kernel); got != freshC {
			t.Errorf("%s: cached kernel differs from fresh compile", app.Name)
		}
	}
	st := c.Stats()
	n := int64(len(apps.All()))
	if st.Misses != n || st.SourceHits != n {
		t.Fatalf("stats: misses=%d sourceHits=%d, want %d each", st.Misses, st.SourceHits, n)
	}
	if st.Poisoned != 0 {
		t.Fatalf("stats: unexpected poisonings: %d", st.Poisoned)
	}
}

// TestSemanticHit: two source texts that differ only in a trailing
// comment compile to identical bytecode and facts, so the second skips
// b2c via the semantic layer even though its source hash is new.
func TestSemanticHit(t *testing.T) {
	src := apps.All()[0].Source
	c := New()
	_, e1, err := c.CompileSource(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, e2, err := c.CompileSource(src+"\n// trailing comment\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("semantically identical sources got distinct entries")
	}
	st := c.Stats()
	if st.Misses != 1 || st.SemanticHits != 1 {
		t.Fatalf("stats: misses=%d semanticHits=%d, want 1 and 1", st.Misses, st.SemanticHits)
	}
}

// TestPoisoningFallback corrupts a cached entry and checks the full
// recovery path: the checksum mismatch is detected on the next hit, the
// entry is evicted, the incident is counted and traced as one
// ccache/poisoned instant, and the caller gets a fresh, valid compile.
func TestPoisoningFallback(t *testing.T) {
	src := apps.All()[0].Source
	mem := obs.NewMemory()
	tr := obs.New(mem)
	c := New()
	_, e, err := c.CompileSource(src, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := cir.Print(e.Kernel)
	// Corrupt the cached kernel in place — the render no longer matches
	// the checksum taken at insertion.
	e.Kernel.Name += "_corrupted"

	_, e2, err := c.CompileSource(src, tr)
	if err != nil {
		t.Fatalf("poisoned hit did not fall back to a fresh compile: %v", err)
	}
	if e2 == e {
		t.Fatalf("poisoned entry was served again")
	}
	if got := cir.Print(e2.Kernel); got != want {
		t.Errorf("fresh fallback kernel differs from the original compile")
	}
	st := c.Stats()
	if st.Poisoned != 1 {
		t.Fatalf("stats: poisoned=%d, want 1", st.Poisoned)
	}
	if st.Misses != 2 {
		t.Fatalf("stats: misses=%d, want 2 (original + fallback)", st.Misses)
	}
	if got := tr.Counters()["ccache.poisoned"]; got != 1 {
		t.Fatalf("obs counter ccache.poisoned=%d, want 1", got)
	}
	tr.Close()
	var poisoned []obs.Event
	for _, e := range mem.Events() {
		if e.Ph == obs.PhaseInstant && e.Cat == "ccache" && e.Name == "poisoned" {
			poisoned = append(poisoned, e)
		}
	}
	if len(poisoned) != 1 {
		t.Fatalf("traced %d ccache/poisoned instants, want 1: %v", len(poisoned), poisoned)
	}
}

// TestSingleFlight: concurrent misses on one class run b2c once.
func TestSingleFlight(t *testing.T) {
	app := apps.All()[0]
	cls, err := kdsl.CompileSource(app.Source)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	const n = 8
	entries := make([]*Entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := c.CompileClass(cls, nil)
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a distinct entry", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats: misses=%d, want 1 (single flight)", st.Misses)
	}
}

// TestFingerprint checks determinism and sensitivity of the content
// address.
func TestFingerprint(t *testing.T) {
	var fps []Fingerprint
	for _, app := range apps.All() {
		cls, err := apps.Get(app.Name).Class()
		if err != nil {
			t.Fatal(err)
		}
		c := New()
		e, err := c.CompileClass(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := New().CompileClass(cls, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.Fingerprint != e2.Fingerprint {
			t.Fatalf("%s: fingerprint not deterministic", app.Name)
		}
		fps = append(fps, e.Fingerprint)
	}
	seen := map[Fingerprint]string{}
	for i, app := range apps.All() {
		if prev, dup := seen[fps[i]]; dup {
			t.Fatalf("fingerprint collision between %s and %s", prev, app.Name)
		}
		seen[fps[i]] = app.Name
	}
}
