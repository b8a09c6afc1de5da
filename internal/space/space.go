// Package space implements S2FA's design-space identification (paper
// §4.1, Table 1). It analyzes a kernel's loop nest and buffer interface
// and produces the tunable parameters:
//
//	buffer bit-width  b = 2^n, 8 < b <= 512          (per array buffer)
//	loop tiling       1 <= t < TC(L)                 (per counted loop)
//	loop parallel     1 <= u < TC(L)                 (per counted loop)
//	loop pipeline     {off, on, flatten}             (per counted loop)
//
// The resulting spaces are enormous (the Smith-Waterman kernel exceeds
// 10^15 points, as the paper notes), which motivates the learning-based
// exploration in internal/dse.
package space

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"s2fa/internal/cir"
	"s2fa/internal/merlin"
)

// FactorKind identifies which design-space factor a parameter controls.
type FactorKind uint8

// Factor kinds (Table 1 rows).
const (
	FactorBitWidth FactorKind = iota
	FactorTile
	FactorParallel
	FactorPipeline
)

func (f FactorKind) String() string {
	switch f {
	case FactorBitWidth:
		return "bitwidth"
	case FactorTile:
		return "tile"
	case FactorParallel:
		return "parallel"
	case FactorPipeline:
		return "pipeline"
	}
	return "?"
}

// Pipeline enum encoding inside a Point.
const (
	PipeOffVal     = 0
	PipeOnVal      = 1
	PipeFlattenVal = 2
)

// Param is one tunable parameter with its domain: either a dense integer
// range [Min, Max] or an explicit enumeration.
type Param struct {
	Name   string
	Kind   FactorKind
	LoopID string // for loop factors
	Buffer string // for bit-width factors
	// Domain: if Enum is non-nil it lists the values; otherwise the
	// domain is the dense range [Min, Max].
	Min, Max int
	Enum     []int
	// Depth is the loop depth for loop factors (0 = outermost). Partition
	// rules use it.
	Depth int
}

// Size returns the number of values in the domain.
func (p *Param) Size() int {
	if p.Enum != nil {
		return len(p.Enum)
	}
	return p.Max - p.Min + 1
}

// ValueAt maps a domain ordinal in [0, Size()) to a concrete value.
func (p *Param) ValueAt(i int) int {
	if p.Enum != nil {
		return p.Enum[i]
	}
	return p.Min + i
}

// Ordinal maps a concrete value back to its domain ordinal, or -1.
func (p *Param) Ordinal(v int) int {
	if p.Enum != nil {
		for i, e := range p.Enum {
			if e == v {
				return i
			}
		}
		return -1
	}
	if v < p.Min || v > p.Max {
		return -1
	}
	return v - p.Min
}

// Contains reports whether v is in the domain.
func (p *Param) Contains(v int) bool { return p.Ordinal(v) >= 0 }

// Random draws a uniform value from the domain (Table 1's spaces are
// dense integer ranges; OpenTuner samples them uniformly).
func (p *Param) Random(rng *rand.Rand) int {
	return p.ValueAt(rng.Intn(p.Size()))
}

// Clamp returns the in-domain value nearest to v.
func (p *Param) Clamp(v int) int {
	if p.Enum != nil {
		best, bd := p.Enum[0], abs(p.Enum[0]-v)
		for _, e := range p.Enum[1:] {
			if d := abs(e - v); d < bd {
				best, bd = e, d
			}
		}
		return best
	}
	if v < p.Min {
		return p.Min
	}
	if v > p.Max {
		return p.Max
	}
	return v
}

// Point is a complete design-point assignment: parameter name to value.
type Point map[string]int

// Clone copies the point.
func (pt Point) Clone() Point {
	out := make(Point, len(pt))
	for k, v := range pt { //determinism:allow copy into a map, order-free
		out[k] = v
	}
	return out
}

// Key returns the point's canonical display string: "name=value;" for
// every parameter, in name order. Traces, reports and goldens print it;
// no DSE table keys on it, since it sorts the names on every call. The
// tables key on the point's identity code (AppendCode), interned per run
// into a dense ID by a Table.
func (pt Point) Key() string {
	keys := make([]string, 0, len(pt))
	var num [20]byte
	n := 0
	for k, v := range pt { //determinism:allow names sorted immediately below
		keys = append(keys, k)
		n += len(k) + len(strconv.AppendInt(num[:0], int64(v), 10)) + 2
	}
	sort.Strings(keys)
	var b strings.Builder
	b.Grow(n)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.Write(strconv.AppendInt(num[:0], int64(pt[k]), 10))
		b.WriteByte(';')
	}
	return b.String()
}

// Space is the identified design space of one kernel.
type Space struct {
	Kernel *cir.Kernel
	Params []Param
	byName map[string]int
}

// MaxTaskParallel caps the parallel/tiling factors considered for the
// runtime-sized task loop (its trip count is the batch size, unknown at
// compile time).
const MaxTaskParallel = 256

// Identify builds the design space for kernel k, reproducing the analysis
// S2FA performs with ROSE + polyhedral frameworks to realize loop trip
// counts and buffer widths (paper §4.1).
func Identify(k *cir.Kernel) *Space {
	info := cir.Analyze(k)
	s := &Space{Kernel: k, byName: map[string]int{}}

	bwEnum := []int{16, 32, 64, 128, 256, 512} // 8 < 2^n <= 512
	for _, p := range k.Params {
		if !p.IsArray {
			continue
		}
		s.add(Param{
			Name:   p.Name + ".bitwidth",
			Kind:   FactorBitWidth,
			Buffer: p.Name,
			Enum:   bwEnum,
		})
	}
	for _, li := range info.All {
		l := li.Loop
		maxF := int(li.Trip) - 1
		if l.ID == k.TaskLoopID {
			maxF = MaxTaskParallel
		}
		if maxF < 1 {
			maxF = 1
		}
		s.add(Param{
			Name: l.ID + ".tile", Kind: FactorTile, LoopID: l.ID,
			Min: 1, Max: maxInt(1, maxF), Depth: li.Depth,
		})
		s.add(Param{
			Name: l.ID + ".parallel", Kind: FactorParallel, LoopID: l.ID,
			Min: 1, Max: maxInt(1, maxF), Depth: li.Depth,
		})
		s.add(Param{
			Name: l.ID + ".pipeline", Kind: FactorPipeline, LoopID: l.ID,
			Enum: []int{PipeOffVal, PipeOnVal, PipeFlattenVal}, Depth: li.Depth,
		})
	}
	return s
}

func (s *Space) add(p Param) {
	s.byName[p.Name] = len(s.Params)
	s.Params = append(s.Params, p)
}

// Param returns the named parameter, or nil.
func (s *Space) Param(name string) *Param {
	if i, ok := s.byName[name]; ok {
		return &s.Params[i]
	}
	return nil
}

// Cardinality returns the total number of design points as a float (the
// spaces overflow int64; S-W exceeds 10^15).
func (s *Space) Cardinality() float64 {
	total := 1.0
	for i := range s.Params {
		total *= float64(s.Params[i].Size())
	}
	return total
}

// RandomPoint draws a uniform random point.
func (s *Space) RandomPoint(rng *rand.Rand) Point {
	pt := make(Point, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		pt[p.Name] = p.Random(rng)
	}
	return pt
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

// PipelineMode decodes a pipeline factor value.
func PipelineMode(v int) cir.PipelineMode {
	switch v {
	case PipeOnVal:
		return cir.PipeOn
	case PipeFlattenVal:
		return cir.PipeFlatten
	default:
		return cir.PipeOff
	}
}

// Directives converts a design point into Merlin transformation
// directives.
func (s *Space) Directives(pt Point) merlin.Directives {
	d := merlin.Directives{Loops: map[string]cir.LoopOpt{}, BitWidths: map[string]int{}}
	for i := range s.Params {
		p := &s.Params[i]
		v, ok := pt[p.Name]
		if !ok {
			continue
		}
		switch p.Kind {
		case FactorBitWidth:
			d.BitWidths[p.Buffer] = v
		case FactorTile:
			opt := d.Loops[p.LoopID]
			opt.Tile = v
			d.Loops[p.LoopID] = opt
		case FactorParallel:
			opt := d.Loops[p.LoopID]
			opt.Parallel = v
			d.Loops[p.LoopID] = opt
		case FactorPipeline:
			opt := d.Loops[p.LoopID]
			opt.Pipeline = PipelineMode(v)
			d.Loops[p.LoopID] = opt
		}
	}
	return d
}

// PerformanceSeed returns the performance-driven seed of paper §4.3.2:
// pipelining enabled for all loops, every parallel factor at 32, buffer
// bit-widths at 512. Aggressive — may be infeasible for complex kernels,
// but slashes DSE iterations when it synthesizes.
func (s *Space) PerformanceSeed() Point {
	pt := make(Point, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		switch p.Kind {
		case FactorBitWidth:
			pt[p.Name] = p.Clamp(512)
		case FactorTile:
			pt[p.Name] = p.Clamp(1)
		case FactorParallel:
			pt[p.Name] = p.Clamp(32)
		case FactorPipeline:
			pt[p.Name] = p.Clamp(PipeOnVal)
		}
	}
	return pt
}

// AreaSeed returns the area-driven seed of paper §4.3.2: all
// optimizations disabled, minimum bit-widths — the most conservative
// configuration, guaranteed (modulo device size) to start the search in
// the feasible region.
func (s *Space) AreaSeed() Point {
	pt := make(Point, len(s.Params))
	for i := range s.Params {
		p := &s.Params[i]
		switch p.Kind {
		case FactorBitWidth:
			pt[p.Name] = p.Clamp(16)
		case FactorPipeline:
			pt[p.Name] = p.Clamp(PipeOffVal)
		default:
			pt[p.Name] = p.Clamp(1)
		}
	}
	return pt
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
