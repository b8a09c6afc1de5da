package absint

import (
	"fmt"
	"math"

	"s2fa/internal/cir"
)

// Interval is a closed range [Lo, Hi] of scalar values, the numeric
// abstract domain of the analyzer. Bounds are float64: every integral
// kernel value below 2^53 is represented exactly, and anything larger is
// widened outward by at least one ULP so the bound stays an enclosure.
// Lo > Hi encodes bottom (unreachable / no value).
type Interval struct {
	Lo, Hi float64
}

// Top returns the unbounded interval.
func Top() Interval { return Interval{math.Inf(-1), math.Inf(1)} }

// Bottom returns the empty interval.
func Bottom() Interval { return Interval{math.Inf(1), math.Inf(-1)} }

// Const returns the singleton interval holding v.
func Const(v cir.Value) Interval {
	if v.K.IsFloat() {
		return pointIv(v.F)
	}
	return pointIv(float64(v.I))
}

func pointIv(x float64) Interval {
	if math.IsNaN(x) {
		return Top()
	}
	return outward(Interval{x, x})
}

// IsBottom reports whether the interval is empty.
func (iv Interval) IsBottom() bool { return iv.Lo > iv.Hi }

// IsTop reports whether the interval is unbounded on both sides.
func (iv Interval) IsTop() bool {
	return math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1)
}

// Contains reports whether concrete value x lies in the interval. NaN is
// only contained in Top (the analyzer returns Top whenever an operation
// can produce NaN).
func (iv Interval) Contains(x float64) bool {
	if math.IsNaN(x) {
		return iv.IsTop()
	}
	return iv.Lo <= x && x <= iv.Hi
}

// Join returns the smallest interval containing both operands.
func (iv Interval) Join(o Interval) Interval {
	if iv.IsBottom() {
		return o
	}
	if o.IsBottom() {
		return iv
	}
	return Interval{math.Min(iv.Lo, o.Lo), math.Max(iv.Hi, o.Hi)}
}

// Meet returns the intersection of the operands.
func (iv Interval) Meet(o Interval) Interval {
	return Interval{math.Max(iv.Lo, o.Lo), math.Min(iv.Hi, o.Hi)}
}

// Widen accelerates convergence: any bound that moved since prev jumps
// straight to the corresponding bound of limit (the slot's type range, or
// infinity). Guarantees fixpoint termination in a bounded number of
// visits per program point.
func (iv Interval) Widen(prev, limit Interval) Interval {
	out := iv
	if iv.Lo < prev.Lo {
		out.Lo = limit.Lo
	}
	if iv.Hi > prev.Hi {
		out.Hi = limit.Hi
	}
	return out
}

// ConstInt returns the exact integer the interval pins down, if any.
func (iv Interval) ConstInt() (int64, bool) {
	if iv.IsBottom() || iv.Lo != iv.Hi {
		return 0, false
	}
	x := iv.Lo
	if x != math.Trunc(x) || math.Abs(x) >= 1<<52 {
		return 0, false
	}
	return int64(x), true
}

// Bits returns the smallest power-of-two storage width (8..64) that
// provably holds every signed integer in the interval, and ok=false when
// the interval is unbounded.
func (iv Interval) Bits() (int, bool) {
	if iv.IsBottom() {
		return 8, true
	}
	if math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
		return 0, false
	}
	for _, w := range []int{8, 16, 32, 64} {
		lo := -math.Pow(2, float64(w-1))
		hi := math.Pow(2, float64(w-1)) - 1
		if iv.Lo >= lo && iv.Hi <= hi {
			return w, true
		}
	}
	return 0, false
}

func (iv Interval) String() string {
	if iv.IsBottom() {
		return "⊥"
	}
	if iv.IsTop() {
		return "⊤"
	}
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// kindRange returns the value range of a scalar kind: the signed
// wraparound range for integral kinds (matching cir.IntVal truncation),
// unbounded for floats.
func kindRange(k cir.Kind) Interval {
	switch k {
	case cir.Bool:
		return Interval{0, 1}
	case cir.Char:
		return Interval{math.MinInt8, math.MaxInt8}
	case cir.Short:
		return Interval{math.MinInt16, math.MaxInt16}
	case cir.Int:
		return Interval{math.MinInt32, math.MaxInt32}
	case cir.Long:
		// MaxInt64 is not exactly representable; the float64 rounding is
		// outward, which keeps the bound an enclosure.
		return Interval{math.MinInt64, math.MaxInt64}
	default:
		return Top()
	}
}

// outward nudges bounds away from zero range when they are too large for
// exact float64 representation, so rounding during transfer functions can
// never shrink an enclosure below a concrete value.
func outward(iv Interval) Interval {
	if iv.IsBottom() {
		return iv
	}
	if math.Abs(iv.Lo) >= 1<<52 {
		iv.Lo = math.Nextafter(iv.Lo, math.Inf(-1))
	}
	if math.Abs(iv.Hi) >= 1<<52 {
		iv.Hi = math.Nextafter(iv.Hi, math.Inf(1))
	}
	return iv
}

// ulps widens both bounds outward by n ULP steps, used after library math
// functions whose rounding is not guaranteed monotone.
func (iv Interval) ulps(n int) Interval {
	if iv.IsBottom() {
		return iv
	}
	for i := 0; i < n; i++ {
		iv.Lo = math.Nextafter(iv.Lo, math.Inf(-1))
		iv.Hi = math.Nextafter(iv.Hi, math.Inf(1))
	}
	return iv
}

// fit clamps an arithmetic result to kind k: when the enclosure already
// lies inside k's representable range the truncating semantics of
// cir.IntVal cannot fire and the bounds are exact; otherwise wraparound
// is possible and the whole kind range is the only sound answer.
func fit(k cir.Kind, iv Interval) Interval {
	if iv.IsBottom() {
		return iv
	}
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return Top()
	}
	if k.IsFloat() {
		if k == cir.Float {
			// cir.FloatVal rounds through float32; rounding is monotone, so
			// rounding the bounds preserves the enclosure.
			return Interval{float64(float32(iv.Lo)), float64(float32(iv.Hi))}
		}
		return iv
	}
	kr := kindRange(k)
	if iv.Lo >= kr.Lo && iv.Hi <= kr.Hi {
		return iv
	}
	return kr
}

// binInterval is the transfer function for cir.EvalBinary at kind k.
func binInterval(op cir.BinOp, k cir.Kind, l, r Interval) Interval {
	if l.IsBottom() || r.IsBottom() {
		return Bottom()
	}
	if op.IsCompare() || op == cir.LAnd || op == cir.LOr {
		return compareInterval(op, l, r)
	}
	switch op {
	case cir.Add:
		return fit(k, outward(Interval{l.Lo + r.Lo, l.Hi + r.Hi}))
	case cir.Sub:
		return fit(k, outward(Interval{l.Lo - r.Hi, l.Hi - r.Lo}))
	case cir.Mul:
		return fit(k, outward(corners(l, r, func(a, b float64) float64 { return a * b })))
	case cir.Div:
		if !k.IsFloat() {
			return divIntInterval(k, l, r)
		}
		if r.Contains(0) {
			return Top()
		}
		return fit(k, outward(corners(l, r, func(a, b float64) float64 { return a / b })))
	case cir.Rem:
		return remInterval(k, l, r)
	case cir.And:
		if l.Lo >= 0 && r.Lo >= 0 {
			return Interval{0, math.Min(l.Hi, r.Hi)}
		}
		return kindRange(k)
	case cir.Or, cir.Xor:
		if l.Lo >= 0 && r.Lo >= 0 {
			return Interval{0, nextPow2(math.Max(l.Hi, r.Hi)) - 1}
		}
		return kindRange(k)
	case cir.Shl, cir.Shr:
		if c, ok := r.ConstInt(); ok && l.Lo >= 0 && !math.IsInf(l.Hi, 1) {
			s := uint64(c) & 63
			if op == cir.Shr {
				return fit(k, Interval{math.Floor(l.Lo / math.Pow(2, float64(s))), math.Floor(l.Hi / math.Pow(2, float64(s)))})
			}
			return fit(k, outward(Interval{l.Lo * math.Pow(2, float64(s)), l.Hi * math.Pow(2, float64(s))}))
		}
		return kindRange(k)
	}
	return kindRange(k)
}

// compareInterval evaluates a comparison or logical operator over
// intervals, returning [0,0], [1,1], or [0,1].
func compareInterval(op cir.BinOp, l, r Interval) Interval {
	t := Interval{1, 1}
	f := Interval{0, 0}
	switch op {
	case cir.Lt:
		if l.Hi < r.Lo {
			return t
		}
		if l.Lo >= r.Hi {
			return f
		}
	case cir.Le:
		if l.Hi <= r.Lo {
			return t
		}
		if l.Lo > r.Hi {
			return f
		}
	case cir.Gt:
		if l.Lo > r.Hi {
			return t
		}
		if l.Hi <= r.Lo {
			return f
		}
	case cir.Ge:
		if l.Lo >= r.Hi {
			return t
		}
		if l.Hi < r.Lo {
			return f
		}
	case cir.Eq:
		if l.Lo == l.Hi && r.Lo == r.Hi && l.Lo == r.Lo {
			return t
		}
		if l.Hi < r.Lo || r.Hi < l.Lo {
			return f
		}
	case cir.Ne:
		if l.Hi < r.Lo || r.Hi < l.Lo {
			return t
		}
		if l.Lo == l.Hi && r.Lo == r.Hi && l.Lo == r.Lo {
			return f
		}
	case cir.LAnd:
		if l.Lo > 0 && r.Lo > 0 {
			return t
		}
		if l.Hi == 0 && l.Lo == 0 || r.Hi == 0 && r.Lo == 0 {
			return f
		}
	case cir.LOr:
		if l.Lo > 0 || r.Lo > 0 {
			return t
		}
		if l.Lo == 0 && l.Hi == 0 && r.Lo == 0 && r.Hi == 0 {
			return f
		}
	}
	return Interval{0, 1}
}

// divIntInterval handles C truncated integer division.
func divIntInterval(k cir.Kind, l, r Interval) Interval {
	// Division by a range containing zero traps at runtime; the non-trap
	// executions divide by the nonzero part.
	if r.Lo == 0 && r.Hi == 0 {
		return Bottom()
	}
	lo, hi := r.Lo, r.Hi
	if lo == 0 {
		lo = 1
	}
	if hi == 0 {
		hi = -1
	}
	if lo <= -1 && hi >= 1 {
		// Both signs possible: bound by |l| extremes.
		m := math.Max(math.Abs(l.Lo), math.Abs(l.Hi))
		return fit(k, outward(Interval{-m, m}))
	}
	res := corners(l, Interval{lo, hi}, func(a, b float64) float64 { return math.Trunc(a / b) })
	return fit(k, outward(res))
}

// remInterval bounds a remainder: for positive divisors the result of
// C's % with a non-negative dividend lies in [0, |d|-1]; general cases
// fall back to a symmetric bound.
func remInterval(k cir.Kind, l, r Interval) Interval {
	if k.IsFloat() {
		return Top()
	}
	if r.Lo == 0 && r.Hi == 0 {
		return Bottom()
	}
	m := math.Max(math.Abs(r.Lo), math.Abs(r.Hi)) - 1
	if math.IsInf(m, 1) {
		return kindRange(k)
	}
	if l.Lo >= 0 {
		hi := m
		if !math.IsInf(l.Hi, 1) && l.Hi < hi {
			hi = l.Hi
		}
		return Interval{0, hi}
	}
	return fit(k, Interval{-m, m})
}

// corners evaluates f at the four interval corner pairs and returns the
// enclosing range — valid for operations monotone in each argument.
func corners(l, r Interval, f func(a, b float64) float64) Interval {
	c := [4]float64{f(l.Lo, r.Lo), f(l.Lo, r.Hi), f(l.Hi, r.Lo), f(l.Hi, r.Hi)}
	lo, hi := c[0], c[0]
	for _, x := range c[1:] {
		if math.IsNaN(x) {
			return Top()
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		return Top()
	}
	return Interval{lo, hi}
}

// unInterval is the transfer function for unary operators.
func unInterval(op cir.UnOp, k cir.Kind, x Interval) Interval {
	if x.IsBottom() {
		return Bottom()
	}
	switch op {
	case cir.Neg:
		return fit(k, Interval{-x.Hi, -x.Lo})
	case cir.Not:
		return compareInterval(cir.Eq, x, Interval{0, 0})
	case cir.BitNot:
		return fit(k, Interval{-x.Hi - 1, -x.Lo - 1})
	}
	return kindRange(k)
}

// castInterval models cir.Value.Convert: float conversions keep the
// range (with float32 rounding), integral conversions truncate toward
// zero and then wrap to the kind's width.
func castInterval(k cir.Kind, x Interval) Interval {
	if x.IsBottom() {
		return Bottom()
	}
	if k.IsFloat() {
		return fit(k, x)
	}
	return fit(k, Interval{math.Trunc(x.Lo), math.Trunc(x.Hi)})
}

// intrinInterval is the transfer function for math intrinsics. exp,
// log, sqrt, fabs, floor and pow compute a double and convert it to k
// as a cast does (cir.EvalIntrinsic), so their ranges go through
// castInterval; abs, min and max compute at k.
func intrinInterval(name string, k cir.Kind, args []Interval) Interval {
	for _, a := range args {
		if a.IsBottom() {
			return Bottom()
		}
	}
	mono := func(f func(float64) float64) Interval {
		x := args[0]
		lo, hi := f(x.Lo), f(x.Hi)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return Top()
		}
		return Interval{math.Min(lo, hi), math.Max(lo, hi)}.ulps(4)
	}
	switch name {
	case "exp":
		return castInterval(k, mono(math.Exp))
	case "log":
		if args[0].Lo <= 0 {
			return Top()
		}
		return castInterval(k, mono(math.Log))
	case "sqrt":
		if args[0].Lo < 0 {
			return Top()
		}
		return castInterval(k, mono(math.Sqrt))
	case "floor":
		return castInterval(k, mono(math.Floor))
	case "abs", "fabs":
		x := args[0]
		lo := 0.0
		if x.Lo > 0 {
			lo = x.Lo
		} else if x.Hi < 0 {
			lo = -x.Hi
		}
		res := outward(Interval{lo, math.Max(math.Abs(x.Lo), math.Abs(x.Hi))})
		if name == "fabs" {
			return castInterval(k, res)
		}
		return fit(k, res)
	case "min":
		if len(args) != 2 {
			return Top()
		}
		return fit(k, Interval{math.Min(args[0].Lo, args[1].Lo), math.Min(args[0].Hi, args[1].Hi)})
	case "max":
		if len(args) != 2 {
			return Top()
		}
		return fit(k, Interval{math.Max(args[0].Lo, args[1].Lo), math.Max(args[0].Hi, args[1].Hi)})
	case "pow":
		if len(args) != 2 || args[0].Lo < 0 {
			return Top()
		}
		res := corners(args[0], args[1], math.Pow)
		if res.IsTop() {
			return Top()
		}
		return castInterval(k, res.ulps(8))
	}
	return Top()
}

// nextPow2 returns the smallest power of two strictly greater than x.
func nextPow2(x float64) float64 {
	p := 1.0
	for p <= x && !math.IsInf(p, 1) {
		p *= 2
	}
	return p
}
