package core

import (
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/dse"
)

const tinySrc = `
class Tiny extends Accelerator[(Array[Int], Int), Int] {
  val id: String = "tiny_kernel"
  val inSizes: Array[Int] = Array(8, 1)
  def call(in: (Array[Int], Int)): Int = {
    val v: Array[Int] = in._1
    val bias: Int = in._2
    var s: Int = bias
    for (i <- 0 until 8) {
      s = s + v(i)
    }
    s
  }
}
`

func TestCompileOnly(t *testing.T) {
	fw := New()
	cls, k, err := fw.Compile(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	if cls.ID != "tiny_kernel" {
		t.Errorf("id = %q", cls.ID)
	}
	if k.TaskLoopID != "L0" || len(k.Loops()) != 2 {
		t.Errorf("kernel shape: %d loops", len(k.Loops()))
	}
}

func TestBuildEndToEnd(t *testing.T) {
	fw := New()
	fw.Tasks = 512
	b, err := fw.BuildFromSource(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Best.Feasible {
		t.Fatal("no feasible design")
	}
	if b.Outcome == nil || b.Outcome.Evaluations == 0 {
		t.Error("DSE did not run")
	}
	if b.Accelerator == nil || b.Accelerator.ID != "tiny_kernel" {
		t.Error("accelerator not assembled")
	}
	if !strings.Contains(b.HLSSource(), "void tiny_kernel") {
		t.Error("HLS source missing kernel function")
	}
	// The best design's annotated source should carry at least one
	// directive (the DSE never picks the all-off point for this kernel).
	if b.BestHLSSource() == b.HLSSource() {
		t.Log("best design equals pristine kernel (all-off point chosen)")
	}

	mgr := blaze.NewManager(fw.Device)
	if err := fw.Deploy(b, mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.Lookup("tiny_kernel") == nil {
		t.Error("deploy did not register the accelerator")
	}
}

func TestBuildDeterministic(t *testing.T) {
	build := func() float64 {
		fw := New()
		fw.Tasks = 512
		b, err := fw.BuildFromSource(tinySrc)
		if err != nil {
			t.Fatal(err)
		}
		return b.Outcome.Best.Objective
	}
	if build() != build() {
		t.Error("same seed produced different builds")
	}
}

func TestBuildVanillaMode(t *testing.T) {
	fw := New()
	fw.Tasks = 512
	cfg := dse.VanillaConfig(1)
	cfg.TimeLimitMinutes = 60
	fw.DSE = &cfg
	b, err := fw.BuildFromSource(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Outcome.Partitions) != 1 {
		t.Errorf("vanilla mode used %d partitions", len(b.Outcome.Partitions))
	}
}

func TestBuildAllPaperApps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, a := range apps.All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			fw := New()
			fw.Tasks = a.Tasks
			b, err := fw.BuildFromSource(a.Source)
			if err != nil {
				t.Fatal(err)
			}
			if !b.Best.Feasible {
				t.Fatal("no feasible design")
			}
			if b.Best.MaxUtil() > fw.Device.UsableFrac+1e-9 {
				t.Errorf("deployed design exceeds the usable cap: %.0f%%", b.Best.MaxUtil()*100)
			}
			if b.Best.FreqMHz < 60 || b.Best.FreqMHz > 250 {
				t.Errorf("frequency out of range: %v", b.Best.FreqMHz)
			}
		})
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	fw := New()
	if _, _, err := fw.Compile("class Broken {"); err == nil {
		t.Error("syntax error not surfaced")
	}
}
