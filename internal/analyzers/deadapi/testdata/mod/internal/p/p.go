// Package p declares one exported name per case the deadapi tests pin.
package p

// T is used in-package, so the type is live.
type T struct{}

// String satisfies fmt.Stringer; the standard library calls it.
func (T) String() string { return "T" }

// Area satisfies the module's Shape interface.
func (T) Area() float64 { return 1 }

// Shape is named by use below.
type Shape interface{ Area() float64 }

// TestOnly has no caller outside p_test.go.
func (T) TestOnly() int { return 1 }

// TestType is named only by p_test.go.
type TestType struct{}

// Unused has no reference at all.
func Unused() {}

// Qualified is called as p.Qualified from cmd/tool.
func Qualified() int { return 1 }

// Aliased is called through a renamed import in internal/q.
func Aliased() int { return 2 }

// InPackage is called by an unexported function of p.
func InPackage() int { return 3 }

// BenchOnly is called only by a perfbench test.
func BenchOnly() int { return 4 }

// Oracle is a deliberate test oracle.
// api:allow reference semantics that p_test.go compares against
func Oracle() int { return 5 }

// NoReason carries an annotation without the reason it requires.
// api:allow
func NoReason() {}

// Stale is annotated although cmd/tool uses it.
// api:allow kept for tests
func Stale() int { return 6 }

// Limit is a constant, grouped with an unused one.
const (
	Limit   = 8
	Unused2 = 9
)

func area(s Shape) float64 { return s.Area() + float64(InPackage()+Limit) }

var _ = area(T{})
