package b2c

import (
	"strings"
	"testing"

	"s2fa/internal/cir"
)

// rangeSrc computes small values into an Int output buffer, so the
// abstract interpreter can prove a range far narrower than the element
// kind and valueBits can shrink the storage width.
const rangeSrc = `
class Scale extends Accelerator[Array[Int], Array[Int]] {
  val id: String = "scale"
  val inSizes: Array[Int] = Array(8)
  def call(in: Array[Int]): Array[Int] = {
    val out: Array[Int] = new Array[Int](8)
    for (i <- 0 until 8) {
      out(i) = i * 3
    }
    out
  }
}
`

func TestParamValueRangesSeeded(t *testing.T) {
	cls := compileSrc(t, rangeSrc)
	k, err := Compile(cls)
	if err != nil {
		t.Fatalf("b2c compile: %v", err)
	}
	in := k.Param("in")
	if in == nil {
		t.Fatal("no in param")
	}
	if !in.ValKnown || in.ValLo != -2147483648 || in.ValHi != 2147483647 {
		t.Errorf("in range = [%v,%v] known=%v, want full Int range", in.ValLo, in.ValHi, in.ValKnown)
	}
	if bits := valueBits(*in); bits != 32 {
		t.Errorf("in valueBits = %d, want 32", bits)
	}
	out := k.Param("out")
	if out == nil {
		t.Fatal("no out param")
	}
	// Loop writes i*3 for i in [0,7]; allocation zero-fill keeps 0 inside.
	if !out.ValKnown || out.ValLo != 0 || out.ValHi != 21 {
		t.Errorf("out range = [%v,%v] known=%v, want [0,21]", out.ValLo, out.ValHi, out.ValKnown)
	}
	if bits := valueBits(*out); bits != 8 {
		t.Errorf("out valueBits = %d, want 8 (proven [0,21] in an Int buffer)", bits)
	}
}

// lengthSrc reads the extent of an input array, which only the abstract
// interpreter can resolve (the syntactic table covers locals and statics),
// and derives a loop bound from it through a division the lifter cannot
// fold syntactically.
const lengthSrc = `
class Half extends Accelerator[Array[Int], Array[Int]] {
  val id: String = "half"
  val inSizes: Array[Int] = Array(8)
  def call(in: Array[Int]): Array[Int] = {
    val half: Int = in.length / 2
    val out: Array[Int] = new Array[Int](8)
    for (i <- 0 until 8) {
      out(i) = in(i) + half
    }
    out
  }
}
`

func TestFactArrayLenAndStoredConstFold(t *testing.T) {
	cls := compileSrc(t, lengthSrc)
	k, err := Compile(cls)
	if err != nil {
		t.Fatalf("b2c compile: %v", err)
	}
	// The store of `half` must have collapsed to the proven constant, so
	// the generated C carries a literal, not a division chain.
	src := cir.Print(k)
	if !strings.Contains(src, "half = 4;") {
		t.Errorf("generated C does not fold half to its proven constant:\n%s", src)
	}
	if strings.Contains(src, "/ 2") {
		t.Errorf("generated C still divides at runtime:\n%s", src)
	}
}

// valueBits is the narrowest standard storage width (8/16/32/64 bits)
// that provably holds every value p carries. Without a proven range —
// or for float elements, whose mantissa precision a value range says
// nothing about — it is the element's natural width.
func valueBits(p cir.Param) int {
	if !p.ValKnown || p.Elem.IsFloat() {
		return p.Elem.Bits()
	}
	for _, b := range []int{8, 16, 32} {
		if b >= p.Elem.Bits() {
			break
		}
		half := float64(int64(1) << (b - 1))
		if p.ValLo >= -half && p.ValHi <= half-1 {
			return b
		}
	}
	return p.Elem.Bits()
}

func TestValueBitsWidths(t *testing.T) {
	cases := []struct {
		p    cir.Param
		want int
	}{
		{cir.Param{Elem: cir.Int}, 32},
		{cir.Param{Elem: cir.Int, ValKnown: true, ValLo: 0, ValHi: 21}, 8},
		{cir.Param{Elem: cir.Int, ValKnown: true, ValLo: -129, ValHi: 0}, 16},
		{cir.Param{Elem: cir.Int, ValKnown: true, ValLo: 0, ValHi: 70000}, 32},
		{cir.Param{Elem: cir.Long, ValKnown: true, ValLo: 0, ValHi: 1e12}, 64},
		{cir.Param{Elem: cir.Double, ValKnown: true, ValLo: 0, ValHi: 1}, 64},
		{cir.Param{Elem: cir.Char, ValKnown: true, ValLo: 0, ValHi: 3}, 8},
	}
	for i, c := range cases {
		if got := valueBits(c.p); got != c.want {
			t.Errorf("case %d: valueBits = %d, want %d", i, got, c.want)
		}
	}
}
