package blaze

import (
	"math/rand"
	"strings"
	"testing"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/spark"
)

// impureSrc scrubs its input array while computing: a heap write the
// offload path cannot reproduce (only output buffers flow back), so the
// runtime must keep it on the JVM.
const impureSrc = `
class Scrub extends Accelerator[Array[Int], Array[Int]] {
  val id: String = "scrub"
  val inSizes: Array[Int] = Array(8)
  def call(in: Array[Int]): Array[Int] = {
    val out: Array[Int] = new Array[Int](8)
    for (i <- 0 until 8) {
      out(i) = in(i) * 2
      in(i) = 0
    }
    out
  }
}
`

// TestImpureKernelFallsBackToJVM registers an accelerator for an impure
// kernel and checks the purity gate routes every task to the JVM with a
// sourced diagnostic, instead of silently dropping the side effect on
// the FPGA path.
func TestImpureKernelFallsBackToJVM(t *testing.T) {
	cls, err := kdsl.CompileSource(impureSrc)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(fpga.VU9P())
	// A gate that fails to fire reaches scrubAccel's unusable layout,
	// and the diagnostic assertion below catches it.
	if err := mgr.Register(scrubAccel(cls)); err != nil {
		t.Fatal(err)
	}

	rdd := spark.Parallelize(spark.NewContext(), scrubTasks(rand.New(rand.NewSource(11)), 4), 2)
	out, stats, err := Wrap(rdd, mgr).MapAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsedFPGA {
		t.Error("impure kernel was offloaded")
	}
	if !strings.Contains(stats.Fallback, "impure") {
		t.Errorf("fallback reason = %q, want purity diagnostic", stats.Fallback)
	}
	if !strings.Contains(stats.Fallback, "in[") && !strings.Contains(stats.Fallback, ":") {
		t.Errorf("diagnostic not sourced: %q", stats.Fallback)
	}
	if len(out) != 4 {
		t.Fatalf("JVM fallback produced %d results", len(out))
	}
	// Second job on the same class hits the cached verdict.
	_, stats2, err := Wrap(rdd, mgr).MapAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.UsedFPGA || stats2.Fallback != stats.Fallback {
		t.Errorf("cached verdict mismatch: %+v", stats2)
	}
}

// scrubAccel is an accelerator for impureSrc's class with a deliberately
// unusable layout: if the purity gate fails to fire, offload crashes
// into the generic accelerator-error fallback instead.
func scrubAccel(cls *bytecode.Class) *Accelerator {
	return &Accelerator{ID: cls.ID, Layout: Layout{Class: cls}, Design: &fpga.Design{
		CyclesPerTask: 1, FreqMHz: 100, BytesPerTask: 1,
	}}
}

// scrubTasks draws n inputs for impureSrc.
func scrubTasks(rng *rand.Rand, n int) []jvmsim.Val {
	tasks := make([]jvmsim.Val, n)
	for i := range tasks {
		arr := make([]cir.Value, 8)
		for j := range arr {
			arr[j] = cir.IntVal(cir.Int, int64(rng.Intn(100)))
		}
		tasks[i] = jvmsim.Array(arr)
	}
	return tasks
}
