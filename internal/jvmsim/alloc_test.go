package jvmsim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
)

// escapedAllocs counts the heap objects a result Val carries out of an
// invocation: one per array and one per tuple's field slice.
func escapedAllocs(v jvmsim.Val) int {
	n := 0
	if v.IsArr {
		n++
	}
	if v.IsTup {
		n++
		for _, f := range v.Tup {
			n += escapedAllocs(f)
		}
	}
	return n
}

// engines compiles src and returns an interpreter VM and a JIT VM of it.
func engines(t *testing.T, src string) (interp, jit *jvmsim.VM) {
	t.Helper()
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	vmJ := jvmsim.New(cls)
	if !vmJ.TryJIT() {
		t.Fatal("TryJIT = false")
	}
	return jvmsim.New(cls), vmJ
}

func intVal(v int64) jvmsim.Val { return jvmsim.Scalar(cir.IntVal(cir.Int, v)) }

// TestJITSteadyStateAllocs pins the JIT's allocation contract: a warm
// frame allocates only what escapes in the result, recycling bounds the
// memory a frame keeps, and a recycled array reads exactly like a fresh
// one.
func TestJITSteadyStateAllocs(t *testing.T) {
	t.Run("S-W", func(t *testing.T) {
		a := apps.Get("S-W")
		cls, err := a.Class()
		if err != nil {
			t.Fatal(err)
		}
		vm := jvmsim.New(cls)
		if !vm.TryJIT() {
			t.Fatal("TryJIT = false")
		}
		in := a.Gen(rand.New(rand.NewSource(1)), 1)[0]
		out, err := vm.Call(in)
		if err != nil {
			t.Fatal(err)
		}
		// The two 16641-cell DP tables are recycled; the tuple and its
		// two output arrays escape.
		want := escapedAllocs(out)
		got := testing.AllocsPerRun(10, func() {
			if _, err := vm.Call(in); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(want) {
			t.Errorf("warm S-W Call allocates %.1f, want <= %d (what escapes in its result)", got, want)
		}
	})
	t.Run("scratch-in-loop", func(t *testing.T) {
		src := `
class Scratch extends Accelerator[Int, Int] {
  val id: String = "scratch"
  def call(in: Int): Int = {
    var acc: Int = 0
    for (i <- 0 until 100) {
      val s: Array[Int] = new Array[Int](16)
      s(i % 16) = in + i
      acc = acc + s(i % 16) + s((i + 1) % 16)
    }
    acc
  }
}`
		vmI, vmJ := engines(t, src)
		tasks := []jvmsim.Val{intVal(1), intVal(2), intVal(3)}
		outI, errI := vmI.CallBatch(tasks)
		outJ, errJ := vmJ.CallBatch(tasks)
		if errI != nil || errJ != nil {
			t.Fatalf("interp err %v, jit err %v", errI, errJ)
		}
		if !reflect.DeepEqual(outI, outJ) || vmI.Counts != vmJ.Counts {
			t.Fatalf("divergence: interp %v %+v, jit %v %+v", outI, vmI.Counts, outJ, vmJ.Counts)
		}
		if n := jvmsim.FreeArrays(vmJ); n == 0 || n > jvmsim.MaxFree {
			t.Errorf("free list holds %d arrays, want 1..%d", n, jvmsim.MaxFree)
		}
	})
	t.Run("recycled-array-reads-zero", func(t *testing.T) {
		// Task 2 reads its scratch array before writing it; the array
		// is task 1's, recycled, and must read as freshly zeroed.
		src := `
class Stale extends Accelerator[Int, Int] {
  val id: String = "stale"
  def call(in: Int): Int = {
    val s: Array[Int] = new Array[Int](8)
    var sum: Int = 0
    for (i <- 0 until 8) {
      sum = sum + s(i)
    }
    for (i <- 0 until 8) {
      s(i) = in + i
    }
    sum * 1000 + s(7)
  }
}`
		vmI, vmJ := engines(t, src)
		tasks := []jvmsim.Val{intVal(5), intVal(9)}
		outI, errI := vmI.CallBatch(tasks)
		outJ, errJ := vmJ.CallBatch(tasks)
		if errI != nil || errJ != nil {
			t.Fatalf("interp err %v, jit err %v", errI, errJ)
		}
		if !reflect.DeepEqual(outI, outJ) || vmI.Counts != vmJ.Counts {
			t.Fatalf("divergence: interp %v %+v, jit %v %+v", outI, vmI.Counts, outJ, vmJ.Counts)
		}
		if got := outJ[1].S.I; got != 16 {
			t.Errorf("task 2 = %d, want 16 (a stale read would add 1000 * the sum of task 1's writes)", got)
		}
		if n := jvmsim.FreeArrays(vmJ); n != 1 {
			t.Errorf("free list holds %d arrays, want the one recycled array", n)
		}
	})
}

// TestAppsLowerFully pins the analysis's reach: every block of every
// app kernel and of a generated kernel population is lowered, so no
// baseline hands work to the interpreter.
func TestAppsLowerFully(t *testing.T) {
	for _, a := range apps.All() {
		cls, err := a.Class()
		if err != nil {
			t.Fatal(err)
		}
		p, err := jvmsim.Compile(cls)
		if err != nil {
			t.Fatal(err)
		}
		if n := jvmsim.Unlowered(p); n != 0 {
			t.Errorf("%s: %d blocks left to the interpreter", a.Name, n)
		}
	}
	for _, k := range kdslgen.Generate(42, 64) {
		cls, err := kdsl.CompileSource(k.Source)
		if err != nil {
			t.Fatal(err)
		}
		p, err := jvmsim.Compile(cls)
		if err != nil {
			t.Fatal(err)
		}
		if n := jvmsim.Unlowered(p); n != 0 {
			t.Errorf("%s: %d blocks left to the interpreter", k.Name, n)
		}
	}
}
