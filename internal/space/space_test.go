package space

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
)

func swSpace(t *testing.T) *Space {
	t.Helper()
	k, err := apps.Get("S-W").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return Identify(k)
}

// TestSWCardinality asserts the paper's Table 1 observation: the
// Smith-Waterman design space exceeds a thousand trillion points.
func TestSWCardinality(t *testing.T) {
	s := swSpace(t)
	if c := s.Cardinality(); c < 1e15 {
		t.Errorf("S-W cardinality = %.3g, paper says > 1e15", c)
	}
}

func TestIdentifyFactors(t *testing.T) {
	s := swSpace(t)
	kinds := map[FactorKind]int{}
	for i := range s.Params {
		kinds[s.Params[i].Kind]++
	}
	// S-W: 4 buffers (in_1, in_2, out_1, out_2), 3 counted loops.
	if kinds[FactorBitWidth] != 4 {
		t.Errorf("bitwidth factors = %d, want 4", kinds[FactorBitWidth])
	}
	if kinds[FactorTile] != 3 || kinds[FactorParallel] != 3 || kinds[FactorPipeline] != 3 {
		t.Errorf("loop factors = %v", kinds)
	}
	// Table 1 domains.
	bw := s.Param("in_1.bitwidth")
	if bw == nil || bw.Size() != 6 || bw.Enum[0] != 16 || bw.Enum[5] != 512 {
		t.Errorf("bitwidth domain = %+v", bw)
	}
	par := s.Param("L1.parallel")
	if par == nil || par.Min != 1 || par.Max != 127 {
		t.Errorf("L1.parallel domain = %+v", par)
	}
	task := s.Param("L0.parallel")
	if task == nil || task.Max != MaxTaskParallel {
		t.Errorf("task parallel domain = %+v", task)
	}
}

func TestOrdinalRoundTrip(t *testing.T) {
	s := swSpace(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := range s.Params {
			p := &s.Params[i]
			v := p.Random(rng)
			if p.ValueAt(p.Ordinal(v)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Validate checks that pt assigns an in-domain value to every parameter.
func (s *Space) Validate(pt Point) error {
	if len(pt) != len(s.Params) {
		return fmt.Errorf("space: point has %d assignments, space has %d parameters", len(pt), len(s.Params))
	}
	for i := range s.Params {
		p := &s.Params[i]
		v, ok := pt[p.Name]
		if !ok {
			return fmt.Errorf("space: point missing parameter %q", p.Name)
		}
		if !p.Contains(v) {
			return fmt.Errorf("space: parameter %q value %d outside domain", p.Name, v)
		}
	}
	return nil
}

func TestRandomPointValidates(t *testing.T) {
	s := swSpace(t)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		pt := s.RandomPoint(rng)
		if err := s.Validate(pt); err != nil {
			t.Fatalf("random point invalid: %v", err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	s := swSpace(t)
	rng := rand.New(rand.NewSource(9))
	pt := s.RandomPoint(rng)
	pt["L1.parallel"] = 100000
	if err := s.Validate(pt); err == nil {
		t.Error("out-of-domain value accepted")
	}
	delete(pt, "L1.parallel")
	if err := s.Validate(pt); err == nil {
		t.Error("missing parameter accepted")
	}
}

func TestSeeds(t *testing.T) {
	s := swSpace(t)
	perf := s.PerformanceSeed()
	if err := s.Validate(perf); err != nil {
		t.Fatalf("performance seed invalid: %v", err)
	}
	// Paper §4.3.2: pipeline all loops, parallel 32, bit-width 512.
	if perf["L1.parallel"] != 32 || perf["in_1.bitwidth"] != 512 || perf["L1.pipeline"] != PipeOnVal {
		t.Errorf("performance seed = %v", perf)
	}
	area := s.AreaSeed()
	if err := s.Validate(area); err != nil {
		t.Fatalf("area seed invalid: %v", err)
	}
	if area["L1.parallel"] != 1 || area["in_1.bitwidth"] != 16 || area["L1.pipeline"] != PipeOffVal {
		t.Errorf("area seed = %v", area)
	}
}

func TestDirectivesMapping(t *testing.T) {
	s := swSpace(t)
	pt := s.AreaSeed()
	pt["L1.parallel"] = 8
	pt["L1.tile"] = 4
	pt["L1.pipeline"] = PipeFlattenVal
	pt["in_1.bitwidth"] = 256
	d := s.Directives(pt)
	opt := d.Loops["L1"]
	if opt.Parallel != 8 || opt.Tile != 4 || opt.Pipeline != cir.PipeFlatten {
		t.Errorf("L1 directives = %+v", opt)
	}
	if d.BitWidths["in_1"] != 256 {
		t.Errorf("bitwidths = %v", d.BitWidths)
	}
}

func TestRestrict(t *testing.T) {
	s := swSpace(t)
	sub, err := Restrict(s, []Constraint{
		{Param: "L1.parallel", LoOrd: 0, HiOrd: 7},   // values 1..8
		{Param: "L0.pipeline", LoOrd: 1, HiOrd: 2},   // {on, flatten}
		{Param: "in_1.bitwidth", LoOrd: 3, HiOrd: 5}, // {128,256,512}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := sub.Param("L1.parallel"); p.Min != 1 || p.Max != 8 {
		t.Errorf("restricted range = [%d,%d]", p.Min, p.Max)
	}
	if p := sub.Param("L0.pipeline"); p.Size() != 2 || p.Enum[0] != PipeOnVal {
		t.Errorf("restricted enum = %v", p.Enum)
	}
	if p := sub.Param("in_1.bitwidth"); p.Size() != 3 || p.Enum[0] != 128 {
		t.Errorf("restricted bitwidths = %v", p.Enum)
	}
	// Untouched params keep their domains.
	if p := sub.Param("L2.parallel"); p.Size() != s.Param("L2.parallel").Size() {
		t.Error("unconstrained parameter narrowed")
	}
	// Seeds clamp into the sub-box.
	area := sub.AreaSeed()
	if area["L0.pipeline"] != PipeOnVal {
		t.Errorf("area seed pipeline = %d, want clamped to on", area["L0.pipeline"])
	}
	if err := sub.Validate(area); err != nil {
		t.Errorf("area seed invalid in subspace: %v", err)
	}
	// Cardinality shrinks.
	if sub.Cardinality() >= s.Cardinality() {
		t.Error("restriction did not shrink the space")
	}
}

func TestRestrictEmptyDomain(t *testing.T) {
	s := swSpace(t)
	if _, err := Restrict(s, []Constraint{{Param: "L0.pipeline", LoOrd: 2, HiOrd: 1}}); err == nil {
		t.Error("empty restriction accepted")
	}
	// Intersection of two constraints on the same param.
	sub, err := Restrict(s, []Constraint{
		{Param: "L1.parallel", LoOrd: 0, HiOrd: 63},
		{Param: "L1.parallel", LoOrd: 16, HiOrd: 126},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := sub.Param("L1.parallel"); p.Min != 17 || p.Max != 64 {
		t.Errorf("intersected range = [%d,%d]", p.Min, p.Max)
	}
}

func TestClamp(t *testing.T) {
	s := swSpace(t)
	bw := s.Param("in_1.bitwidth")
	if bw.Clamp(100) != 128 {
		t.Errorf("Clamp(100) = %d", bw.Clamp(100))
	}
	par := s.Param("L1.parallel")
	if par.Clamp(0) != 1 || par.Clamp(9999) != 127 || par.Clamp(50) != 50 {
		t.Error("range clamp broken")
	}
}

// fmtKey is the reference form of Point.Key: fmt-rendered
// "name=value;" pairs in sorted name order.
func fmtKey(pt Point) string {
	keys := make([]string, 0, len(pt))
	for k := range pt {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, pt[k])
	}
	return b.String()
}

// TestKeyMatchesFmtForm pins Key byte for byte to the fmt form that
// goldens, traces and recorded benchmark points were written in.
func TestKeyMatchesFmtForm(t *testing.T) {
	cases := []struct {
		pt   Point
		want string
	}{
		{Point{}, ""},
		{nil, ""},
		{Point{"a": 0}, "a=0;"},
		{Point{"x": -7, "b": -1234567890}, "b=-1234567890;x=-7;"},
		{Point{"L10.parallel": 64, "L1.parallel": 1, "in_1.bitwidth": 512, "L0.pipeline": 2},
			"L0.pipeline=2;L1.parallel=1;L10.parallel=64;in_1.bitwidth=512;"},
	}
	for _, c := range cases {
		if got := c.pt.Key(); got != c.want || got != fmtKey(c.pt) {
			t.Errorf("Key(%v) = %q, want %q (fmt form %q)", map[string]int(c.pt), got, c.want, fmtKey(c.pt))
		}
	}
	s := swSpace(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		pt := s.RandomPoint(rng)
		if got, want := pt.Key(), fmtKey(pt); got != want {
			t.Fatalf("Key = %q, fmt form %q", got, want)
		}
	}
}
