package b2c

import (
	"math/rand"
	"strings"
	"testing"

	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
)

// diffTest compiles a kernel, runs n random scalar-int tasks through both
// the JVM simulator and the generated C kernel, and compares outputs.
// The kernel must be Accelerator[Int, Int].
func diffTestIntToInt(t *testing.T, src string, inputs []int64) {
	t.Helper()
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		t.Fatalf("kdsl: %v", err)
	}
	k, err := Compile(cls)
	if err != nil {
		t.Fatalf("b2c: %v", err)
	}
	n := len(inputs)
	in := make([]cir.Value, n)
	out := make([]cir.Value, n)
	for i, v := range inputs {
		in[i] = cir.IntVal(cir.Int, v)
		out[i].K = cir.Int
	}
	ev := cir.NewEvaluator(k)
	if err := ev.Execute(n, map[string][]cir.Value{"in": in, "out": out}); err != nil {
		t.Fatalf("eval: %v\n%s", err, cir.Print(k))
	}
	vm := jvmsim.New(cls)
	for i, v := range inputs {
		res, err := vm.Call(jvmsim.Scalar(cir.IntVal(cir.Int, v)))
		if err != nil {
			t.Fatalf("jvm(%d): %v", v, err)
		}
		if res.S.I != out[i].I {
			t.Fatalf("input %d: jvm=%d kernel=%d\n%s", v, res.S.I, out[i].I, cir.Print(k))
		}
	}
}

func TestStructureElseIfChain(t *testing.T) {
	diffTestIntToInt(t, `
class C extends Accelerator[Int, Int] {
  val id: String = "c"
  def call(in: Int): Int = {
    var r: Int = 0
    if (in < 0) {
      r = -1
    } else if (in == 0) {
      r = 0
    } else if (in < 10) {
      r = 1
    } else {
      r = 2
    }
    r
  }
}`, []int64{-5, 0, 3, 50})
}

func TestStructureNestedConditionals(t *testing.T) {
	diffTestIntToInt(t, `
class C extends Accelerator[Int, Int] {
  val id: String = "c"
  def call(in: Int): Int = {
    var r: Int = 0
    if (in > 0) {
      if (in % 2 == 0) {
        r = 10
      } else {
        r = 11
      }
      r = r + 100
    } else {
      r = 7
    }
    r
  }
}`, []int64{-1, 2, 3})
}

func TestStructureWhileWithShortCircuit(t *testing.T) {
	// Multi-block loop condition (&&): exercises the generic
	// While(true)+Break structuring path.
	diffTestIntToInt(t, `
class C extends Accelerator[Int, Int] {
  val id: String = "c"
  def call(in: Int): Int = {
    var i: Int = 0
    var s: Int = 0
    while (i < in && s < 50) {
      s = s + i
      i = i + 1
    }
    s
  }
}`, []int64{0, 5, 100})
}

func TestStructureLogicalOrCondition(t *testing.T) {
	diffTestIntToInt(t, `
class C extends Accelerator[Int, Int] {
  val id: String = "c"
  def call(in: Int): Int = {
    var r: Int = 0
    if (in < 2 || in > 8) {
      r = 1
    }
    if (in > 3 && (in % 2 == 0 || in == 7)) {
      r = r + 10
    }
    r
  }
}`, []int64{0, 1, 4, 5, 6, 7, 9, 10})
}

func TestCountedLoopRecovery(t *testing.T) {
	cls, err := kdsl.CompileSource(`
class C extends Accelerator[Int, Int] {
  val id: String = "c"
  def call(in: Int): Int = {
    var s: Int = 0
    for (i <- 0 until 10) {
      s = s + i
    }
    for (j <- 1 to 5) {
      s = s + j * 100
    }
    s
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	loops := k.Loops()
	if len(loops) != 3 { // task + two recovered counted loops
		t.Fatalf("loops = %d, want 3:\n%s", len(loops), cir.Print(k))
	}
	if loops[1].TripCount() != 10 {
		t.Errorf("first loop trip = %d", loops[1].TripCount())
	}
	if loops[2].TripCount() != 5 { // `1 to 5` => hi folds to 6
		t.Errorf("second loop trip = %d", loops[2].TripCount())
	}
	src := cir.Print(k)
	if strings.Contains(src, "while") {
		t.Errorf("counted loops not recovered:\n%s", src)
	}
}

func TestOutputPassthroughCopies(t *testing.T) {
	// Returning an input buffer as an output field forces an explicit
	// copy loop (the kernel cannot alias its AXI buffers).
	src := `
class P extends Accelerator[(Array[Int], Array[Int]), (Array[Int], Array[Int])] {
  val id: String = "p"
  val inSizes: Array[Int] = Array(4, 4)
  def call(in: (Array[Int], Array[Int])): (Array[Int], Array[Int]) = {
    val a: Array[Int] = in._1
    var o: Array[Int] = new Array[Int](4)
    for (i <- 0 until 4) {
      o(i) = a(i) * 2
    }
    (o, in._2)
  }
}`
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	n := 3
	bufs := map[string][]cir.Value{
		"in_1": make([]cir.Value, n*4), "in_2": make([]cir.Value, n*4),
		"out_1": make([]cir.Value, n*4), "out_2": make([]cir.Value, n*4),
	}
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"in_1", "in_2"} {
		for i := range bufs[name] {
			bufs[name][i] = cir.IntVal(cir.Int, int64(rng.Intn(100)))
		}
	}
	for _, name := range []string{"out_1", "out_2"} {
		for i := range bufs[name] {
			bufs[name][i].K = cir.Int
		}
	}
	ev := cir.NewEvaluator(k)
	if err := ev.Execute(n, bufs); err != nil {
		t.Fatalf("eval: %v\n%s", err, cir.Print(k))
	}
	for i := range bufs["in_2"] {
		if bufs["out_2"][i].I != bufs["in_2"][i].I {
			t.Fatalf("passthrough elem %d: %d != %d", i, bufs["out_2"][i].I, bufs["in_2"][i].I)
		}
		if bufs["out_1"][i].I != bufs["in_1"][i].I*2 {
			t.Fatalf("computed elem %d wrong", i)
		}
	}
}

func TestTuple3Support(t *testing.T) {
	src := `
class T3 extends Accelerator[(Int, Int, Int), (Int, Int)] {
  val id: String = "t3"
  def call(in: (Int, Int, Int)): (Int, Int) = {
    (in._1 + in._2, in._2 * in._3)
  }
}`
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Params) != 5 {
		t.Fatalf("params = %d, want 5", len(k.Params))
	}
	bufs := map[string][]cir.Value{
		"in_1": intVals(2), "in_2": intVals(3), "in_3": intVals(4),
		"out_1": make([]cir.Value, 1), "out_2": make([]cir.Value, 1),
	}
	ev := cir.NewEvaluator(k)
	if err := ev.Execute(1, bufs); err != nil {
		t.Fatal(err)
	}
	if bufs["out_1"][0].I != 5 || bufs["out_2"][0].I != 12 {
		t.Errorf("results = %v %v", bufs["out_1"][0], bufs["out_2"][0])
	}
}

func intVals(vals ...int64) []cir.Value {
	out := make([]cir.Value, len(vals))
	for i, v := range vals {
		out[i] = cir.IntVal(cir.Int, v)
	}
	return out
}

func TestReduceMustReturnFirstParam(t *testing.T) {
	src := `
class R extends Accelerator[Int, Array[Double]] {
  val id: String = "r"
  def call(in: Int): Array[Double] = {
    var g: Array[Double] = new Array[Double](4)
    g(0) = in.toDouble
    g
  }
  def reduce(a: Array[Double], b: Array[Double]): Array[Double] = {
    for (i <- 0 until 4) {
      b(i) = b(i) + a(i)
    }
    b
  }
}`
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(cls); err == nil || !strings.Contains(err.Error(), "first parameter") {
		t.Errorf("reduce returning its second parameter accepted: %v", err)
	}
}

func TestLoopIDsArePreorderUnique(t *testing.T) {
	cls, err := kdsl.CompileSource(`
class L extends Accelerator[Int, Int] {
  val id: String = "l"
  def call(in: Int): Int = {
    var s: Int = 0
    for (i <- 0 until 4) {
      for (j <- 0 until 4) {
        s = s + i * j
      }
    }
    for (k <- 0 until 2) {
      s = s + k
    }
    s
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"L0", "L1", "L2", "L3"}
	loops := k.Loops()
	if len(loops) != len(want) {
		t.Fatalf("loops = %d", len(loops))
	}
	for i, l := range loops {
		if l.ID != want[i] {
			t.Errorf("loop %d id = %s, want %s", i, l.ID, want[i])
		}
	}
}

func TestGlobalsSurviveToKernel(t *testing.T) {
	cls, err := kdsl.CompileSource(`
class G extends Accelerator[Int, Int] {
  val id: String = "g"
  val tab: Array[Int] = Array(10, 20, 30, 40)
  def call(in: Int): Int = {
    tab(in % 4)
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Compile(cls)
	if err != nil {
		t.Fatal(err)
	}
	var g *cir.Global
	for i := range k.Globals {
		if k.Globals[i].Name == "tab" {
			g = &k.Globals[i]
		}
	}
	if g == nil || len(g.Data) != 4 || g.Data[2].I != 30 {
		t.Fatalf("global = %+v", g)
	}
	diffTestIntToInt(t, `
class G extends Accelerator[Int, Int] {
  val id: String = "g"
  val tab: Array[Int] = Array(10, 20, 30, 40)
  def call(in: Int): Int = {
    tab(in % 4)
  }
}`, []int64{0, 1, 2, 3, 7})
}
