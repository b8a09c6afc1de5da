package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdslgen"
)

// fromFields packs a generated task into the jvmsim input shape (one
// field bare, several as a tuple), copying arrays so that neither side
// can alias the other's storage.
func fromFields(task []kdslgen.FieldVal) jvmsim.Val {
	fs := make([]jvmsim.Val, len(task))
	for i, f := range task {
		if f.IsArr {
			fs[i] = jvmsim.Array(append([]cir.Value(nil), f.Arr...))
		} else {
			fs[i] = jvmsim.Scalar(f.S)
		}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return jvmsim.Tuple(fs...)
}

// copyFields deep-copies a generated task: the reference evaluator may
// write into its input arrays.
func copyFields(task []kdslgen.FieldVal) []kdslgen.FieldVal {
	out := make([]kdslgen.FieldVal, len(task))
	for i, f := range task {
		out[i] = f
		if f.IsArr {
			out[i].Arr = append([]cir.Value(nil), f.Arr...)
		}
	}
	return out
}

// fromField converts a reference result to a jvmsim value.
func fromField(f kdslgen.FieldVal) jvmsim.Val {
	if f.IsArr {
		return jvmsim.Array(append([]cir.Value(nil), f.Arr...))
	}
	return jvmsim.Scalar(f.S)
}

// copyVal deep-copies a jvmsim value.
func copyVal(v jvmsim.Val) jvmsim.Val {
	switch {
	case v.IsTup:
		fs := make([]jvmsim.Val, len(v.Tup))
		for i := range v.Tup {
			fs[i] = copyVal(v.Tup[i])
		}
		return jvmsim.Tuple(fs...)
	case v.IsArr:
		return jvmsim.Array(append([]cir.Value(nil), v.Arr...))
	}
	return v
}

func copyVals(vs []jvmsim.Val) []jvmsim.Val {
	out := make([]jvmsim.Val, len(vs))
	for i, v := range vs {
		out[i] = copyVal(v)
	}
	return out
}

// sameScalar is bit-exact equality: kernels mirror JVM arithmetic
// operation for operation, so not even float results may differ.
func sameScalar(a, b cir.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K.IsFloat() {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.I == b.I
}

func sameVal(a, b jvmsim.Val) bool {
	switch {
	case a.IsTup:
		if !b.IsTup || len(a.Tup) != len(b.Tup) {
			return false
		}
		for i := range a.Tup {
			if !sameVal(a.Tup[i], b.Tup[i]) {
				return false
			}
		}
		return true
	case a.IsArr:
		if !b.IsArr || len(a.Arr) != len(b.Arr) {
			return false
		}
		for i := range a.Arr {
			if !sameScalar(a.Arr[i], b.Arr[i]) {
				return false
			}
		}
		return true
	}
	return !b.IsArr && !b.IsTup && sameScalar(a.S, b.S)
}

// sameVals compares two result batches element by element.
func sameVals(a, b []jvmsim.Val) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// digester hashes generated inputs into a workload's inputs_sha256.
// Every write is length- or kind-prefixed, so distinct inputs cannot
// collide by concatenation.
type digester struct{ h hash.Hash }

func newDigester(workload string) *digester {
	d := &digester{h: sha256.New()}
	d.str(workload)
	return d
}

func (d *digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digester) value(v cir.Value) {
	d.int(int64(v.K))
	d.int(v.I)
	d.int(int64(math.Float64bits(v.F)))
}

func (d *digester) val(v jvmsim.Val) {
	switch {
	case v.IsTup:
		d.int(-1)
		d.int(int64(len(v.Tup)))
		for _, f := range v.Tup {
			d.val(f)
		}
	case v.IsArr:
		d.int(-2)
		d.int(int64(len(v.Arr)))
		for _, x := range v.Arr {
			d.value(x)
		}
	default:
		d.int(-3)
		d.value(v.S)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
