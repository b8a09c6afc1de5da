package cir

import (
	"fmt"
	"math"
	"testing"
)

// refEvalBinary is EvalBinary as it was before the operator table, kept
// verbatim (with its two comparison helpers) as the oracle every form of
// the table is checked against.
func refEvalBinary(op BinOp, k Kind, l, r Value) (Value, error) {
	if op.IsCompare() {
		var res bool
		if l.K.IsFloat() || r.K.IsFloat() {
			a, b := l.AsFloat(), r.AsFloat()
			res = refCompareFloat(op, a, b)
		} else {
			a, b := l.I, r.I
			res = refCompareInt(op, a, b)
		}
		return BoolVal(res), nil
	}
	if k.IsFloat() {
		a, b := l.AsFloat(), r.AsFloat()
		switch op {
		case Add:
			return FloatVal(k, a+b), nil
		case Sub:
			return FloatVal(k, a-b), nil
		case Mul:
			return FloatVal(k, a*b), nil
		case Div:
			return FloatVal(k, a/b), nil
		case Rem:
			return FloatVal(k, math.Mod(a, b)), nil
		}
		return Value{}, fmt.Errorf("cir: operator %s invalid for %s", op, k)
	}
	a, b := l.AsInt(), r.AsInt()
	switch op {
	case Add:
		return IntVal(k, a+b), nil
	case Sub:
		return IntVal(k, a-b), nil
	case Mul:
		return IntVal(k, a*b), nil
	case Div:
		if b == 0 {
			return Value{}, fmt.Errorf("cir: integer division by zero")
		}
		return IntVal(k, a/b), nil
	case Rem:
		if b == 0 {
			return Value{}, fmt.Errorf("cir: integer remainder by zero")
		}
		return IntVal(k, a%b), nil
	case And:
		return IntVal(k, a&b), nil
	case Or:
		return IntVal(k, a|b), nil
	case Xor:
		return IntVal(k, a^b), nil
	case Shl:
		return IntVal(k, a<<uint64(b&63)), nil
	case Shr:
		return IntVal(k, a>>uint64(b&63)), nil
	}
	return Value{}, fmt.Errorf("cir: unknown operator %s", op)
}

func refCompareInt(op BinOp, a, b int64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	}
	return false
}

func refCompareFloat(op BinOp, a, b float64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	case Ne:
		return a != b
	}
	return false
}

// tableKinds is every kind, plus one past the last.
var tableKinds = []Kind{Void, Bool, Char, Short, Int, Long, Float, Double, Double + 1}

// tableOperands holds values of every runtime kind: zero (as divisor),
// signed and wrapping magnitudes, NaN and infinities, and the mixed forms
// a kind-blind constructor yields, such as the FloatVal(Int, x) that
// EvalIntrinsic returns for an int-kinded exp or sqrt and the
// IntVal(Float, x) of an int literal of floating kind.
func tableOperands() []Value {
	ints := []int64{0, 1, -1, 7, -128, 1 << 31, -(1 << 40), math.MaxInt64, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 0.5, -2.75, 3e9, 1e300, math.NaN(), math.Inf(1), math.Inf(-1)}
	var out []Value
	for _, k := range tableKinds {
		for _, v := range ints {
			out = append(out, IntVal(k, v))
		}
		for _, f := range floats {
			out = append(out, FloatVal(k, f))
		}
	}
	return out
}

func sameValue(a, b Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestBinaryTableMatchesEvalBinary runs every (op, kind) pair, including
// an operator and a kind past the last, over every pair of operands of
// every runtime kind, and requires the result and the error text of the
// old EvalBinary from EvalBinary, from the row's Value form and from the
// row's typed forms fed with the operands as the evaluator reads them:
// AsInt or AsFloat for arithmetic, I or AsFloat for a comparison as the
// runtime kinds decide. A zero divisor must fail the typed form with the
// Value form's error. A row without typed forms must always fail.
func TestBinaryTableMatchesEvalBinary(t *testing.T) {
	operands := tableOperands()
	for op := Add; op <= LOr+1; op++ {
		for _, k := range tableKinds {
			o, bad := lookup(op, k), 0
			report := func(form string, l, r Value, got, want any) {
				if bad++; bad <= 3 {
					t.Errorf("%s %s at %s over %+v, %+v: got %v, want %v", form, op, k, l, r, got, want)
				}
			}
			typed := o.int != nil || o.float != nil || o.intCmp != nil
			for _, l := range operands {
				for _, r := range operands {
					want, werr := refEvalBinary(op, k, l, r)
					if got, gerr := EvalBinary(op, k, l, r); errString(gerr) != errString(werr) || !sameValue(got, want) {
						report("EvalBinary", l, r, fmt.Sprintf("%+v, %v", got, gerr), fmt.Sprintf("%+v, %v", want, werr))
					}
					if got, gerr := o.value(l, r); errString(gerr) != errString(werr) || !sameValue(got, want) {
						report("value", l, r, fmt.Sprintf("%+v, %v", got, gerr), fmt.Sprintf("%+v, %v", want, werr))
					}
					if !typed {
						if werr == nil {
							report("row without typed forms", l, r, "no failure", want)
						}
						continue
					}
					switch {
					case o.intCmp != nil && !l.K.IsFloat() && !r.K.IsFloat():
						if got := o.intCmp(constInt(l.I), constInt(r.I))(); got != (want.I != 0) {
							report("intCmp", l, r, got, want)
						}
					case o.intCmp != nil:
						if got := o.floatCmp(constFloat(l.AsFloat()), constFloat(r.AsFloat()))(); got != (want.I != 0) {
							report("floatCmp", l, r, got, want)
						}
					case o.int != nil:
						got, gerr := typedResult(func() Value {
							return Value{K: k, I: o.int(constInt(l.AsInt()), constInt(r.AsInt()))()}
						})
						if errString(gerr) != errString(werr) || werr == nil && !sameValue(got, want) {
							report("int", l, r, fmt.Sprintf("%+v, %v", got, gerr), fmt.Sprintf("%+v, %v", want, werr))
						}
					default:
						got := Value{K: k, F: o.float(constFloat(l.AsFloat()), constFloat(r.AsFloat()))()}
						if werr != nil || !sameValue(got, want) {
							report("float", l, r, got, fmt.Sprintf("%+v, %v", want, werr))
						}
					}
				}
			}
		}
	}
}

func constInt(v int64) intFn       { return func() int64 { return v } }
func constFloat(v float64) floatFn { return func() float64 { return v } }

// typedResult runs a typed form and returns the error it fails with.
func typedResult(run func() Value) (v Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(evalError).err
		}
	}()
	return run(), nil
}
