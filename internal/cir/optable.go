package cir

import (
	"errors"
	"fmt"
	"math"
)

// The binary operator table: one row per (BinOp, Kind) with the
// operator's semantics resolved once. The compiled evaluator and the JVM
// simulator's JIT lower expressions to the row's typed forms, EvalBinary
// applies its Value form, so operator semantics live here only.

// The typed forms compose plain closures, so a compiler outside this
// package can build them from its own operands.
type (
	intFn   = func() int64
	floatFn = func() float64
	boolFn  = func() bool
)

// operator is one (op, kind) row of the table.
type operator struct {
	// value applies the operator to two runtime values: a comparison
	// reads the operands' runtime kinds, arithmetic works at the row's
	// kind, and a pair with no arithmetic at that kind always fails.
	value func(l, r Value) (Value, error)
	// int and float build the typed forms of arithmetic: over the
	// operands' AsInt at an integer kind, truncated to it, or over their
	// AsFloat at a floating kind, rounded to it. A zero integer divisor
	// fails as in value. Nil where the row has no such arithmetic.
	int   func(l, r intFn) intFn
	float func(l, r floatFn) floatFn
	// intCmp and floatCmp build a comparison's typed forms: over the
	// operands' I when neither runtime kind is floating, else over their
	// AsFloat. Nil for a row that is not a comparison.
	intCmp   func(l, r intFn) boolFn
	floatCmp func(l, r floatFn) boolFn
}

var operators = func() (t [LOr + 1][Double + 1]operator) {
	for op := range t {
		for k := range t[op] {
			t[op][k] = newOperator(BinOp(op), Kind(k))
		}
	}
	return t
}()

// lookup returns the row of op at kind k. A pair outside the table (an
// unknown operator or kind) gets a row built on the spot.
func lookup(op BinOp, k Kind) *operator {
	if int(op) < len(operators) && int(k) < len(operators[op]) {
		return &operators[op][k]
	}
	o := newOperator(op, k)
	return &o
}

// BinaryFunc returns the typed forms of the row of op at kind k, each
// nil where the row has none (see operator): arithmetic over AsInt or
// AsFloat, and a comparison over I or AsFloat. A row with neither
// arithmetic nor comparison always fails in EvalBinary. An integer Div
// or Rem form fails through the evaluator's error exit on a zero
// divisor, so a caller with its own error exit tests the divisor first.
func BinaryFunc(op BinOp, k Kind) (int func(l, r intFn) intFn, float func(l, r floatFn) floatFn, intCmp func(l, r intFn) boolFn, floatCmp func(l, r floatFn) boolFn) {
	o := lookup(op, k)
	return o.int, o.float, o.intCmp, o.floatCmp
}

// EvalBinary applies a non-logical binary operator to two scalar values
// with C semantics: comparisons yield Bool, arithmetic is performed at
// kind k. Shared by the IR evaluator and the JVM simulator so both sides
// of every differential test use identical scalar semantics.
func EvalBinary(op BinOp, k Kind, l, r Value) (Value, error) {
	return lookup(op, k).value(l, r)
}

func newOperator(op BinOp, k Kind) operator {
	if op.IsCompare() {
		return compareOperator(op)
	}
	switch k {
	case Float:
		return floatOperator[float32](op, k)
	case Double:
		return floatOperator[float64](op, k)
	case Bool:
		return boolOperator(op)
	case Char:
		return intOperator[int8](op, k)
	case Short:
		return intOperator[int16](op, k)
	case Int:
		return intOperator[int32](op, k)
	}
	// Long, Void and kinds past the last keep all 64 bits.
	return intOperator[int64](op, k)
}

// failing is the row of an operator with no arithmetic at its kind.
func failing(err error) operator {
	return operator{value: func(Value, Value) (Value, error) { return Value{}, err }}
}

var (
	errDivZero = errors.New("cir: integer division by zero")
	errRemZero = errors.New("cir: integer remainder by zero")
)

// intOperator is arithmetic at integer kind k, whose width T truncates
// every result.
func intOperator[T int8 | int16 | int32 | int64](op BinOp, k Kind) operator {
	switch op {
	case Add:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, I: int64(T(l.AsInt() + r.AsInt()))}, nil },
			int:   func(l, r intFn) intFn { return func() int64 { return int64(T(l() + r())) } },
		}
	case Sub:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, I: int64(T(l.AsInt() - r.AsInt()))}, nil },
			int:   func(l, r intFn) intFn { return func() int64 { return int64(T(l() - r())) } },
		}
	case Mul:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, I: int64(T(l.AsInt() * r.AsInt()))}, nil },
			int:   func(l, r intFn) intFn { return func() int64 { return int64(T(l() * r())) } },
		}
	case Div:
		return operator{
			value: func(l, r Value) (Value, error) {
				b := r.AsInt()
				if b == 0 {
					return Value{}, errDivZero
				}
				return Value{K: k, I: int64(T(l.AsInt() / b))}, nil
			},
			int: func(l, r intFn) intFn {
				return func() int64 {
					a, b := l(), r()
					if b == 0 {
						fail(errDivZero)
					}
					return int64(T(a / b))
				}
			},
		}
	case Rem:
		return operator{
			value: func(l, r Value) (Value, error) {
				b := r.AsInt()
				if b == 0 {
					return Value{}, errRemZero
				}
				return Value{K: k, I: int64(T(l.AsInt() % b))}, nil
			},
			int: func(l, r intFn) intFn {
				return func() int64 {
					a, b := l(), r()
					if b == 0 {
						fail(errRemZero)
					}
					return int64(T(a % b))
				}
			},
		}
	case And:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, I: int64(T(l.AsInt() & r.AsInt()))}, nil },
			int:   func(l, r intFn) intFn { return func() int64 { return int64(T(l() & r())) } },
		}
	case Or:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, I: int64(T(l.AsInt() | r.AsInt()))}, nil },
			int:   func(l, r intFn) intFn { return func() int64 { return int64(T(l() | r())) } },
		}
	case Xor:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, I: int64(T(l.AsInt() ^ r.AsInt()))}, nil },
			int:   func(l, r intFn) intFn { return func() int64 { return int64(T(l() ^ r())) } },
		}
	case Shl:
		return operator{
			value: func(l, r Value) (Value, error) {
				return Value{K: k, I: int64(T(l.AsInt() << uint64(r.AsInt()&63)))}, nil
			},
			int: func(l, r intFn) intFn { return func() int64 { return int64(T(l() << uint64(r()&63))) } },
		}
	case Shr:
		return operator{
			value: func(l, r Value) (Value, error) {
				return Value{K: k, I: int64(T(l.AsInt() >> uint64(r.AsInt()&63)))}, nil
			},
			int: func(l, r intFn) intFn { return func() int64 { return int64(T(l() >> uint64(r()&63))) } },
		}
	}
	return failing(fmt.Errorf("cir: unknown operator %s", op))
}

// boolOperator is 64-bit arithmetic whose result is then normalized to
// a Bool's 0 or 1.
func boolOperator(op BinOp) operator {
	o := intOperator[int64](op, Bool)
	value, arith := o.value, o.int
	if arith == nil {
		return o
	}
	return operator{
		value: func(l, r Value) (Value, error) {
			v, err := value(l, r)
			if err != nil {
				return v, err
			}
			return BoolVal(v.I != 0), nil
		},
		int: func(l, r intFn) intFn {
			x := arith(l, r)
			return func() int64 {
				if x() != 0 {
					return 1
				}
				return 0
			}
		},
	}
}

// floatOperator is arithmetic at floating kind k, whose precision T
// rounds every result.
func floatOperator[T float32 | float64](op BinOp, k Kind) operator {
	switch op {
	case Add:
		value := func(l, r Value) (Value, error) { return Value{K: k, F: float64(T(l.AsFloat() + r.AsFloat()))}, nil }
		return operator{
			value: value,
			float: func(l, r floatFn) floatFn {
				return func() float64 {
					a, b := l(), r()
					if x := float64(T(a + b)); x == x {
						return x
					}
					return nanResult(value, a, b)
				}
			},
		}
	case Sub:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, F: float64(T(l.AsFloat() - r.AsFloat()))}, nil },
			float: func(l, r floatFn) floatFn { return func() float64 { return float64(T(l() - r())) } },
		}
	case Mul:
		value := func(l, r Value) (Value, error) { return Value{K: k, F: float64(T(l.AsFloat() * r.AsFloat()))}, nil }
		return operator{
			value: value,
			float: func(l, r floatFn) floatFn {
				return func() float64 {
					a, b := l(), r()
					if x := float64(T(a * b)); x == x {
						return x
					}
					return nanResult(value, a, b)
				}
			},
		}
	case Div:
		return operator{
			value: func(l, r Value) (Value, error) { return Value{K: k, F: float64(T(l.AsFloat() / r.AsFloat()))}, nil },
			float: func(l, r floatFn) floatFn { return func() float64 { return float64(T(l() / r())) } },
		}
	case Rem:
		return operator{
			value: func(l, r Value) (Value, error) {
				return Value{K: k, F: float64(T(math.Mod(l.AsFloat(), r.AsFloat())))}, nil
			},
			float: func(l, r floatFn) floatFn { return func() float64 { return float64(T(math.Mod(l(), r()))) } },
		}
	}
	return failing(fmt.Errorf("cir: operator %s invalid for %s", op, k))
}

// nanResult recomputes a typed Add or Mul whose result is NaN through
// the row's Value form. When both operands are NaN, the hardware returns
// the payload of the operand that the compiler put first, and for a
// commutative operator that order is the register allocator's choice;
// the Value form is the one definition EvalBinary and the JIT share.
func nanResult(value func(l, r Value) (Value, error), a, b float64) float64 {
	v, _ := value(Value{K: Double, F: a}, Value{K: Double, F: b})
	return v.F
}

// compareOperator is a comparison, the same row at every kind: it
// compares as floats when either operand's runtime kind is floating.
func compareOperator(op BinOp) operator {
	switch op {
	case Lt:
		return operator{
			value: func(l, r Value) (Value, error) {
				if l.K.IsFloat() || r.K.IsFloat() {
					return BoolVal(l.AsFloat() < r.AsFloat()), nil
				}
				return BoolVal(l.I < r.I), nil
			},
			intCmp:   func(l, r intFn) boolFn { return func() bool { return l() < r() } },
			floatCmp: func(l, r floatFn) boolFn { return func() bool { return l() < r() } },
		}
	case Le:
		return operator{
			value: func(l, r Value) (Value, error) {
				if l.K.IsFloat() || r.K.IsFloat() {
					return BoolVal(l.AsFloat() <= r.AsFloat()), nil
				}
				return BoolVal(l.I <= r.I), nil
			},
			intCmp:   func(l, r intFn) boolFn { return func() bool { return l() <= r() } },
			floatCmp: func(l, r floatFn) boolFn { return func() bool { return l() <= r() } },
		}
	case Gt:
		return operator{
			value: func(l, r Value) (Value, error) {
				if l.K.IsFloat() || r.K.IsFloat() {
					return BoolVal(l.AsFloat() > r.AsFloat()), nil
				}
				return BoolVal(l.I > r.I), nil
			},
			intCmp:   func(l, r intFn) boolFn { return func() bool { return l() > r() } },
			floatCmp: func(l, r floatFn) boolFn { return func() bool { return l() > r() } },
		}
	case Ge:
		return operator{
			value: func(l, r Value) (Value, error) {
				if l.K.IsFloat() || r.K.IsFloat() {
					return BoolVal(l.AsFloat() >= r.AsFloat()), nil
				}
				return BoolVal(l.I >= r.I), nil
			},
			intCmp:   func(l, r intFn) boolFn { return func() bool { return l() >= r() } },
			floatCmp: func(l, r floatFn) boolFn { return func() bool { return l() >= r() } },
		}
	case Eq:
		return operator{
			value: func(l, r Value) (Value, error) {
				if l.K.IsFloat() || r.K.IsFloat() {
					return BoolVal(l.AsFloat() == r.AsFloat()), nil
				}
				return BoolVal(l.I == r.I), nil
			},
			intCmp:   func(l, r intFn) boolFn { return func() bool { return l() == r() } },
			floatCmp: func(l, r floatFn) boolFn { return func() bool { return l() == r() } },
		}
	}
	// Ne, the last comparison.
	return operator{
		value: func(l, r Value) (Value, error) {
			if l.K.IsFloat() || r.K.IsFloat() {
				return BoolVal(l.AsFloat() != r.AsFloat()), nil
			}
			return BoolVal(l.I != r.I), nil
		},
		intCmp:   func(l, r intFn) boolFn { return func() bool { return l() != r() } },
		floatCmp: func(l, r floatFn) boolFn { return func() bool { return l() != r() } },
	}
}
