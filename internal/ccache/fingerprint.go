package ccache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"

	"s2fa/internal/absint"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
)

// Fingerprint is the content address of one verified kernel class: the
// SHA-256 of the canonical bytecode encoding concatenated with the
// abstract-interpretation fact digest. Two classes with the same
// fingerprint produce byte-identical b2c output, so the cache can serve
// one compilation to the other.
type Fingerprint [32]byte

// String renders the fingerprint as lowercase hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 12 hex digits, for telemetry labels.
func (f Fingerprint) Short() string { return f.String()[:12] }

// FingerprintOf computes the content address of a verified class and its
// analysis facts. The encoding is canonical — a fixed field order with
// length-prefixed variable parts — so the hash is a pure deterministic
// function of the semantic content, independent of map iteration order
// or pointer identity. The facts' FixpointStats are excluded: they
// describe solver effort, not kernel semantics.
func FingerprintOf(cls *bytecode.Class, facts *absint.ClassFacts) Fingerprint {
	d := digest{h: sha256.New()}
	d.class(cls)
	d.classFacts(facts)
	var fp Fingerprint
	d.h.Sum(fp[:0])
	return fp
}

// digest streams the canonical encoding into a hash.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digest) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digest) i64(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) boolean(b bool) {
	if b {
		d.u64(1)
		return
	}
	d.u64(0)
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) val(v cir.Value) {
	d.u64(uint64(v.K))
	d.u64(uint64(v.I))
	d.f64(v.F)
}

func (d *digest) td(t bytecode.TypeDesc) {
	d.u64(uint64(t.Kind))
	d.boolean(t.Array)
	d.u64(uint64(len(t.Tuple)))
	for _, f := range t.Tuple {
		d.td(f)
	}
}

func (d *digest) pos(p bytecode.Pos) {
	d.i64(p.Line)
	d.i64(p.Col)
}

func (d *digest) method(m *bytecode.Method) {
	if m == nil {
		d.u64(0)
		return
	}
	d.u64(1)
	d.str(m.Name)
	d.u64(uint64(len(m.Params)))
	for _, t := range m.Params {
		d.td(t)
	}
	d.td(m.Ret)
	d.u64(uint64(len(m.LocalTypes)))
	for _, t := range m.LocalTypes {
		d.td(t)
	}
	d.u64(uint64(len(m.LocalNames)))
	for _, n := range m.LocalNames {
		d.str(n)
	}
	d.u64(uint64(len(m.Code)))
	for _, in := range m.Code {
		d.u64(uint64(in.Op))
		d.u64(uint64(in.Kind))
		d.i64(in.A)
		d.i64(in.Target)
		d.val(in.Val)
		d.u64(uint64(in.Bin))
		d.u64(uint64(in.Un))
		d.str(in.Sym)
	}
	d.u64(uint64(len(m.Pos)))
	for _, p := range m.Pos {
		d.pos(p)
	}
}

func (d *digest) class(c *bytecode.Class) {
	d.str(c.Name)
	d.str(c.ID)
	d.u64(uint64(len(c.Statics)))
	for _, s := range c.Statics {
		d.str(s.Name)
		d.td(s.Type)
		d.u64(uint64(len(s.Data)))
		for _, v := range s.Data {
			d.val(v)
		}
	}
	d.method(c.Call)
	d.method(c.Reduce)
	d.u64(uint64(len(c.InSizes)))
	for _, n := range c.InSizes {
		d.i64(n)
	}
}

func (d *digest) iv(iv absint.Interval) {
	d.f64(iv.Lo)
	d.f64(iv.Hi)
}

func (d *digest) abstract(a absint.Abstract) {
	d.iv(a.Iv)
	d.boolean(a.IsArray)
	d.iv(a.Elems)
	d.iv(a.Len)
	d.u64(uint64(len(a.Fields)))
	for _, f := range a.Fields {
		d.abstract(f)
	}
}

func (d *digest) effects(es []absint.Effect) {
	d.u64(uint64(len(es)))
	for _, e := range es {
		d.i64(e.PC)
		d.pos(e.Pos)
		d.str(e.Detail)
	}
}

// pcMap hashes an int->Interval map in ascending key order, the only
// canonical order a map has.
func (d *digest) pcMap(m map[int]absint.Interval) {
	keys := make([]int, 0, len(m))
	for pc := range m { //determinism:allow keys sorted before hashing
		keys = append(keys, pc)
	}
	sort.Ints(keys)
	d.u64(uint64(len(keys)))
	for _, pc := range keys {
		d.i64(pc)
		d.iv(m[pc])
	}
}

func (d *digest) methodFacts(f *absint.MethodFacts) {
	if f == nil {
		d.u64(0)
		return
	}
	d.u64(1)
	d.u64(uint64(len(f.Local)))
	for _, iv := range f.Local {
		d.iv(iv)
	}
	d.pcMap(f.Stored)
	d.pcMap(f.Loaded)
	d.u64(uint64(len(f.Arrays)))
	for _, a := range f.Arrays {
		d.str(a.Origin)
		d.u64(uint64(a.Kind))
		d.iv(a.Elems)
		d.iv(a.Len)
		d.pos(a.Pos)
		d.boolean(a.Input)
		d.boolean(a.Static)
	}
	d.abstract(f.Ret)
	d.effects(f.Purity.HeapWrites)
	d.effects(f.Purity.ArgEscapes)
	d.u64(uint64(len(f.Violations)))
	for _, v := range f.Violations {
		d.u64(uint64(v.Kind))
		d.str(v.Method)
		d.i64(v.PC)
		d.pos(v.Pos)
		d.str(v.Detail)
	}
}

func (d *digest) classFacts(cf *absint.ClassFacts) {
	d.methodFacts(cf.Call)
	d.methodFacts(cf.Reduce)
}
