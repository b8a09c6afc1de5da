package absint

import (
	"testing"

	"s2fa/internal/kdsl"
)

const sumReduceSource = `
class SumReduce extends Accelerator[Array[Int], Int] {
  val id: String = "sum_reduce"
  val inSizes: Array[Int] = Array(8)
  def call(in: Array[Int]): Int = {
    var s: Int = 0
    for (i <- 0 until 8) {
      s = s + in(i)
    }
    s
  }
  def reduce(a: Int, b: Int): Int = { a + b }
}
`

// TestFreelistBounded pins the state freelist's steady state: every
// state an analysis releases must have come from the freelist or been
// counted against it, so repeating one analysis on the same workspace
// cannot grow the list past its length after the first run.
func TestFreelistBounded(t *testing.T) {
	for _, src := range []string{sumSource, fillSource, sumReduceSource} {
		cls, err := kdsl.CompileSource(src)
		if err != nil {
			t.Fatal(err)
		}
		ws := new(workspace)
		if _, err := ws.analyzeClass(cls); err != nil {
			t.Fatal(err)
		}
		first := len(ws.free)
		for i := 0; i < 20; i++ {
			if _, err := ws.analyzeClass(cls); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(ws.free); got > first {
			t.Errorf("%s: freelist grew from %d to %d states over 20 repeat analyses", cls.Name, first, got)
		}
	}
}
