package merlin

import "errors"

// Typed transformation errors. Every legality rejection the library
// produces wraps one of these sentinels, so callers (the DSE evaluator,
// the lint cross-checks, the CLI) can distinguish "this design point is
// illegal" from "the transformation engine hit an internal bug" with
// errors.Is instead of string matching.
var (
	// ErrUnknownLoop: a directive addresses a loop ID the kernel does not
	// contain — the design space and the kernel disagree.
	ErrUnknownLoop = errors.New("unknown loop")
	// ErrUnknownParam: a bit-width directive addresses a parameter the
	// kernel does not declare.
	ErrUnknownParam = errors.New("unknown parameter")
	// ErrIllegalFactor: a tile/parallel factor is negative, below the
	// transform's minimum, or exceeds the loop's constant trip count
	// (Table 1: factors range over [1, TC)).
	ErrIllegalFactor = errors.New("illegal factor")
	// ErrNonConstantTrip: pipeline flatten must fully unroll every
	// sub-loop, which requires compile-time-constant trip counts.
	ErrNonConstantTrip = errors.New("non-constant trip count")
	// ErrIllegalBitWidth: an interface width outside {2^n : 8 <= 2^n <=
	// 512}, or targeting a scalar parameter.
	ErrIllegalBitWidth = errors.New("illegal bit-width")
)
