package dse

import (
	"math/rand"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

// saturatingWidths maps each bit-width factor of sp that has dominated
// domain values to its saturating width: the widest value the count
// keeps. Every larger domain value of that factor is dominated.
func saturatingWidths(k *cir.Kernel, sp *space.Space) map[string]int {
	factors := widthFactors(k, sp)
	sat := map[string]int{}
	for i, ord := range saturatingOrds(factors, hls.Analyze(k).WidthModel(fpga.VU9P())) {
		if p := factors[i].p; ord >= 0 && ord < p.Size()-1 {
			sat[p.Name] = p.ValueAt(ord)
		}
	}
	return sat
}

// dominatedCount is the number of domain values above the saturating
// widths, the figure Outcome.RangeRestrictedValues reports.
func dominatedCount(sp *space.Space, sat map[string]int) int {
	n := 0
	for name, w := range sat {
		p := sp.Param(name)
		n += p.Size() - 1 - p.Ordinal(w)
	}
	return n
}

// TestDominatedWidthsPerApp pins the per-app count of dominated
// bit-width domain values that the Fig. 3 summary prints (13 in all).
func TestDominatedWidthsPerApp(t *testing.T) {
	want := map[string]int{"PR": 1, "KMeans": 1, "KNN": 1, "AES": 2, "S-W": 4, "Hist": 2, "StrSearch": 2}
	total := 0
	for _, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sp := space.Identify(k)
		sat := saturatingWidths(k, sp)
		got := dominatedCount(sp, sat)
		total += got
		if got != want[a.Name] {
			t.Errorf("%s: %d dominated widths, want %d", a.Name, got, want[a.Name])
		}
	}
	if total != 13 {
		t.Errorf("%d dominated widths over all apps, want 13", total)
	}
}

// dominated identifies the space of the named app and returns it with
// its saturating widths.
func dominated(t *testing.T, app string) (*space.Space, map[string]int) {
	t.Helper()
	a := apps.Get(app)
	if a == nil {
		t.Fatalf("no app %q", app)
	}
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	sp := space.Identify(k)
	return sp, saturatingWidths(k, sp)
}

// On S-W every Char buffer carries a proven range and 256 bits already
// saturate the channel and stream under the channel floor, so the four
// 512-bit values are dominated and 256 is the widest width kept. The
// count leaves the space itself untouched.
func TestDominatedWidthsSW(t *testing.T) {
	sp, sat := dominated(t, "S-W")
	if got := dominatedCount(sp, sat); got != 4 {
		t.Fatalf("dominated = %d, want 4 (one 512-bit value per buffer)", got)
	}
	for name, w := range sat {
		if w != 256 {
			t.Errorf("%s: widest width kept = %d, want 256", name, w)
		}
	}
	for i := range sp.Params {
		p := &sp.Params[i]
		if p.Kind == space.FactorBitWidth && p.ValueAt(p.Size()-1) != 512 {
			t.Errorf("space mutated: %s widest = %d", p.Name, p.ValueAt(p.Size()-1))
		}
	}
}

// LR streams Double feature vectors; floating-point buffers never get a
// proven range (width carries precision, not magnitude), so none of its
// widths is dominated.
func TestDominatedWidthsFloatBuffersUntouched(t *testing.T) {
	sp, sat := dominated(t, "LR")
	if got := dominatedCount(sp, sat); got != 0 {
		t.Fatalf("dominated = %d, want 0 for float buffers", got)
	}
}

// TestDominatedWidthsNeverPayOff is the soundness oracle of the count:
// on a seeded sample of merlin.Check-legal points of every app, pricing
// a buffer at any dominated width never yields a lower Seconds(), LUT
// or BRAM18K than pricing it at its saturating width, whatever the rest
// of the point sets.
func TestDominatedWidthsNeverPayOff(t *testing.T) {
	const points = 2000
	dev := fpga.VU9P()
	compared := 0
	for _, a := range apps.All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sp := space.Identify(k)
		sat := saturatingWidths(k, sp)
		if len(sat) == 0 {
			continue
		}
		an := hls.Analyze(k)
		rng := rand.New(rand.NewSource(1))
		legal := 0
		for tries := 0; legal < points && tries < 50*points; tries++ {
			d := sp.Directives(sp.RandomPoint(rng))
			if merlin.Check(k, d) != nil {
				continue
			}
			legal++
			opts, widths := an.Directives(d)
			for name, w := range sat {
				p := sp.Param(name)
				i := paramIndex(k, p.Buffer)
				orig := widths[i]
				widths[i] = w
				base := an.Price(opts, widths, dev, int64(a.Tasks), hls.Options{})
				for ord := p.Ordinal(w) + 1; ord < p.Size(); ord++ {
					widths[i] = p.ValueAt(ord)
					r := an.Price(opts, widths, dev, int64(a.Tasks), hls.Options{})
					compared++
					if r.Seconds() < base.Seconds() || r.LUT < base.LUT || r.BRAM18K < base.BRAM18K {
						t.Errorf("%s %v: %s at %d (%.9gs, %d LUT, %d BRAM18K) beats its saturating width %d (%.9gs, %d LUT, %d BRAM18K)",
							a.Name, d, name, widths[i], r.Seconds(), r.LUT, r.BRAM18K, w, base.Seconds(), base.LUT, base.BRAM18K)
					}
				}
				widths[i] = orig
			}
		}
		if legal < points {
			t.Errorf("%s: only %d of %d sampled points are legal", a.Name, legal, points)
		}
	}
	t.Logf("%d dominated-width pricings compared", compared)
}

func paramIndex(k *cir.Kernel, name string) int {
	for i, p := range k.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}
