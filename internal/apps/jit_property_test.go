package apps

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
)

// runEngines pushes the same task batch through a fresh interpreter VM
// and a fresh JIT VM of cls, both with the step budget maxSteps (zero
// meaning the default), and returns both (outputs, reduced value,
// counts, error). Reduction folds the map outputs when the class has a
// reduce method, exercising the second compiled method.
func runEngines(tb testing.TB, cls *bytecode.Class, tasks []jvmsim.Val, maxSteps int64) (outI, outJ []jvmsim.Val, redI, redJ jvmsim.Val, cI, cJ jvmsim.Counts, errI, errJ error) {
	tb.Helper()
	vmI := jvmsim.New(cls)
	vmJ := jvmsim.New(cls)
	if !vmJ.TryJIT() {
		tb.Fatalf("%s: TryJIT = false", cls.Name)
	}
	vmI.MaxSteps, vmJ.MaxSteps = maxSteps, maxSteps
	outI, errI = vmI.CallBatch(tasks)
	outJ, errJ = vmJ.CallBatch(tasks)
	if cls.Reduce != nil && errI == nil && errJ == nil && len(tasks) > 1 {
		redI = outI[0]
		for _, v := range outI[1:] {
			if redI, errI = vmI.Reduce(redI, v); errI != nil {
				break
			}
		}
		redJ = outJ[0]
		for _, v := range outJ[1:] {
			if redJ, errJ = vmJ.Reduce(redJ, v); errJ != nil {
				break
			}
		}
	}
	return outI, outJ, redI, redJ, vmI.Counts, vmJ.Counts, errI, errJ
}

// diffEngines asserts the two engine runs of the app are byte-identical:
// same outputs, same reduced value, same Counts, same errors (text
// included).
func diffEngines(tb testing.TB, a *App, tasks []jvmsim.Val) {
	tb.Helper()
	cls, err := a.Class()
	if err != nil {
		tb.Fatalf("%s: class: %v", a.Name, err)
	}
	diffClass(tb, cls, tasks, 0)
}

// diffClass is diffEngines for any class under the step budget
// maxSteps. It returns the interpreter's error.
func diffClass(tb testing.TB, cls *bytecode.Class, tasks []jvmsim.Val, maxSteps int64) error {
	tb.Helper()
	outI, outJ, redI, redJ, cI, cJ, errI, errJ := runEngines(tb, cls, tasks, maxSteps)
	if (errI == nil) != (errJ == nil) {
		tb.Fatalf("%s (MaxSteps %d): error divergence: interp=%v jit=%v", cls.Name, maxSteps, errI, errJ)
	}
	if errI != nil {
		if errI.Error() != errJ.Error() {
			tb.Fatalf("%s (MaxSteps %d): error text divergence:\n  interp: %v\n  jit:    %v", cls.Name, maxSteps, errI, errJ)
		}
	} else {
		if len(outI) != len(outJ) {
			tb.Fatalf("%s (MaxSteps %d): %d outputs from the interpreter, %d from the JIT", cls.Name, maxSteps, len(outI), len(outJ))
		}
		for i := range outI {
			if !identical(&outI[i], &outJ[i]) {
				tb.Fatalf("%s (MaxSteps %d): output %d of %d diverges: interp=%v jit=%v", cls.Name, maxSteps, i, len(tasks), outI[i], outJ[i])
			}
		}
		if !identical(&redI, &redJ) {
			tb.Fatalf("%s (MaxSteps %d): reduce divergence: interp=%v jit=%v", cls.Name, maxSteps, redI, redJ)
		}
	}
	if cI != cJ {
		tb.Fatalf("%s (MaxSteps %d): counts divergence:\n  interp: %+v\n  jit:    %+v", cls.Name, maxSteps, cI, cJ)
	}
	return errI
}

// TestJITDifferentialAllApps is the acceptance property: for every
// workload and seeds {1, 42, 7}, interpreter and JIT produce
// byte-identical outputs, reduced values, and Counts. Counts feed the
// cost model feeding JVMSeconds, so this is what keeps the Fig. 3/4
// numbers identical whichever engine the suite runs.
func TestJITDifferentialAllApps(t *testing.T) {
	const nTasks = 24
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 7} {
				tasks := a.Gen(rand.New(rand.NewSource(seed)), nTasks)
				diffEngines(t, a, tasks)
			}
		})
	}
}

// FuzzJITvsInterp feeds fuzzer-chosen seeds and batch shapes into a
// fuzzer-chosen app kernel and requires bit-for-bit agreement between
// the engines — the CI fuzz job runs this for 30s per push.
func FuzzJITvsInterp(f *testing.F) {
	for _, seed := range []int64{1, 42, 7} {
		for i := range All() {
			f.Add(seed, uint8(i), uint8(8))
		}
	}
	apps := All()
	f.Fuzz(func(t *testing.T, seed int64, appIdx, n uint8) {
		a := apps[int(appIdx)%len(apps)]
		tasks := a.Gen(rand.New(rand.NewSource(seed)), int(n%16)+1)
		diffEngines(t, a, tasks)
	})
}

// identical is reflect.DeepEqual on values with floats compared by their
// bits, so a NaN equals the NaN of the same payload.
func identical(a, b *jvmsim.Val) bool {
	sameBits := func(x, y cir.Value) bool {
		return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F)
	}
	if a.IsArr != b.IsArr || a.IsTup != b.IsTup || !sameBits(a.S, b.S) ||
		(a.Arr == nil) != (b.Arr == nil) || len(a.Arr) != len(b.Arr) ||
		(a.Tup == nil) != (b.Tup == nil) || len(a.Tup) != len(b.Tup) {
		return false
	}
	for i := range a.Arr {
		if !sameBits(a.Arr[i], b.Arr[i]) {
			return false
		}
	}
	for i := range a.Tup {
		if !identical(&a.Tup[i], &b.Tup[i]) {
			return false
		}
	}
	return true
}

// stepsToFinish is the smallest MaxSteps under which the interpreter
// runs task to completion.
func stepsToFinish(tb testing.TB, cls *bytecode.Class, task jvmsim.Val) int64 {
	tb.Helper()
	vm := jvmsim.New(cls)
	ok := func(b int64) bool {
		vm.MaxSteps = b
		_, err := vm.Call(task)
		return err == nil
	}
	hi := int64(1)
	for !ok(hi) {
		hi *= 2
	}
	lo := hi / 2 // fails, or 0
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; ok(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestJITBudgetOracle runs one task of every app under every MaxSteps
// from 1 to 2048 and under 64 budgets spread up to the task's step
// total + 1. The JIT hands a block that does not fit the remaining
// budget to the interpreter at its leader, so the budget must run out
// at the same instruction with the same partial Counts, and once it
// suffices the outputs must agree.
func TestJITBudgetOracle(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) {
			cls, err := a.Class()
			if err != nil {
				t.Fatal(err)
			}
			task := a.Gen(rand.New(rand.NewSource(1)), 1)
			total := stepsToFinish(t, cls, task[0])
			budgets := make([]int64, 0, 2048+64)
			for b := int64(1); b <= 2048; b++ {
				budgets = append(budgets, b)
			}
			for i := int64(0); i < 64; i++ {
				budgets = append(budgets, 1+i*total/63)
			}
			finished := 0
			for _, b := range budgets {
				if diffClass(t, cls, task, b) == nil {
					finished++
				}
			}
			if finished == 0 {
				t.Errorf("no budget up to %d finished the task", total+1)
			}
		})
	}
}

// trapCases are kdsl kernels that trap, one per integer kind for
// division and remainder by zero, one per element kind for an array
// load and an array store out of bounds, and a negative array length.
// Each traps mid-block, with work after the trapping instruction in the
// same block, so the JIT must take back exactly what the interpreter
// never charged.
func trapCases() map[string]string {
	cases := map[string]string{}
	for _, k := range []string{"Char", "Short", "Int", "Long"} {
		for op, name := range map[string]string{"/": "div", "%": "rem"} {
			cases[name+"-"+k] = fmt.Sprintf(`
class T extends Accelerator[(Int, Int), Int] {
  val id: String = "t"
  def call(in: (Int, Int)): Int = {
    val a: %[1]s = in._1.to%[1]s
    val b: %[1]s = in._2.to%[1]s
    var c: %[1]s = (a %[2]s b).to%[1]s
    c = (c + a).to%[1]s
    c.toInt + 1
  }
}`, k, op)
		}
	}
	zero := map[string]string{"Boolean": "false", "Char": "0.toChar", "Short": "0.toShort", "Int": "0",
		"Long": "0.toLong", "Float": "0.0.toFloat", "Double": "0.0"}
	for k, z := range zero {
		cases["aload-"+k] = fmt.Sprintf(`
class T extends Accelerator[Int, Int] {
  val id: String = "t"
  def call(in: Int): Int = {
    val arr: Array[%[1]s] = new Array[%[1]s](4)
    var x: %[1]s = arr(in)
    x = arr(0)
    in + 1
  }
}`, k)
		cases["astore-"+k] = fmt.Sprintf(`
class T extends Accelerator[Int, Int] {
  val id: String = "t"
  def call(in: Int): Int = {
    val arr: Array[%[1]s] = new Array[%[1]s](4)
    arr(in) = %[2]s
    arr(0) = %[2]s
    in + 1
  }
}`, k, z)
	}
	// kdsl admits only constant, in-range array sizes; TestJITTrapTable
	// patches this one's size to read the (negative) input.
	cases["newarray-negative"] = `
class T extends Accelerator[Int, Int] {
  val id: String = "t"
  def call(in: Int): Int = {
    val arr: Array[Int] = new Array[Int](4)
    arr(0) = in
    in + 1
  }
}`
	return cases
}

// sizeFromInput makes the first array allocation of cls take its size
// from the call's Int argument instead of a constant.
func sizeFromInput(tb testing.TB, cls *bytecode.Class) {
	tb.Helper()
	code := cls.Call.Code
	for i := 1; i < len(code); i++ {
		if code[i].Op == bytecode.OpNewArray && code[i-1].Op == bytecode.OpConst {
			code[i-1] = bytecode.Instr{Op: bytecode.OpLoad, A: 0}
			return
		}
	}
	tb.Fatal("no constant-size allocation to patch")
}

// TestJITTrapTable requires every trap of trapCases to leave both
// engines with the same error text and the same partial Counts.
func TestJITTrapTable(t *testing.T) {
	for name, src := range trapCases() {
		t.Run(name, func(t *testing.T) {
			cls, err := kdsl.CompileSource(src)
			if err != nil {
				t.Fatal(err)
			}
			in := jvmsim.Scalar(cir.IntVal(cir.Int, 7))
			if strings.HasPrefix(name, "newarray") {
				sizeFromInput(t, cls)
				in = jvmsim.Scalar(cir.IntVal(cir.Int, -3))
			}
			if cls.Call.Params[0].IsTuple() {
				in = jvmsim.Tuple(in, jvmsim.Scalar(cir.IntVal(cir.Int, 0)))
			}
			err = diffClass(t, cls, []jvmsim.Val{in}, 0)
			want := map[string]string{"div": "division by zero", "rem": "remainder by zero",
				"aload": "ArrayIndexOutOfBounds", "astore": "ArrayIndexOutOfBounds", "newarray": "NegativeArraySize"}[strings.Split(name, "-")[0]]
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one naming %q", err, want)
			}
		})
	}
}

// fuzzFamilies is the number of kdslgen kernel families; kernel idx of
// a population belongs to family idx mod fuzzFamilies.
const fuzzFamilies = 8

// generatedKernel is kernel idx (mod 2*fuzzFamilies) of the kdslgen
// population of seed, compiled.
func generatedKernel(tb testing.TB, seed int64, idx uint8) (*kdslgen.Kernel, *bytecode.Class) {
	tb.Helper()
	n := int(idx)%(2*fuzzFamilies) + 1
	k := kdslgen.Generate(seed, n)[n-1]
	cls, err := kdsl.CompileSource(k.Source)
	if err != nil {
		tb.Fatalf("generated kernel %s does not compile: %v", k.Name, err)
	}
	return k, cls
}

// fuzzGeneratedSeeds is FuzzJITGenerated's seed corpus: two
// populations, every family twice each.
func fuzzGeneratedSeeds() (seeds []int64, idxs []uint8) {
	for _, seed := range []int64{1, 42} {
		for i := 0; i < 2*fuzzFamilies; i++ {
			seeds, idxs = append(seeds, seed), append(idxs, uint8(i))
		}
	}
	return seeds, idxs
}

// TestFuzzGeneratedCorpus checks that FuzzJITGenerated's seed corpus
// covers every kdslgen family and all six numeric kinds.
func TestFuzzGeneratedCorpus(t *testing.T) {
	families := map[string]bool{}
	kinds := map[string]bool{}
	seeds, idxs := fuzzGeneratedSeeds()
	for i := range seeds {
		k, _ := generatedKernel(t, seeds[i], idxs[i])
		families[k.Tags[0]] = true
		for _, kind := range []string{"Char", "Short", "Int", "Long", "Float", "Double"} {
			if strings.Contains(k.Source, kind) {
				kinds[kind] = true
			}
		}
	}
	if len(families) != fuzzFamilies || len(kinds) != 6 {
		t.Errorf("seed corpus covers families %v and kinds %v, want %d and 6", families, kinds, fuzzFamilies)
	}
}

// FuzzJITGenerated draws a kdslgen kernel, a batch size and a MaxSteps
// value (0 meaning the default) from the fuzz input and requires
// bit-identical outputs, reduced value, Counts and error text from the
// two engines. Generated kernels cover kinds and shapes the twelve apps
// never use; the CI fuzz job runs this for 30s per push.
func FuzzJITGenerated(f *testing.F) {
	seeds, idxs := fuzzGeneratedSeeds()
	for i := range seeds {
		f.Add(seeds[i], idxs[i], uint8(3), uint16(0))
		f.Add(seeds[i], idxs[i], uint8(2), uint16(100+37*i))
	}
	f.Fuzz(func(t *testing.T, seed int64, idx, n uint8, maxSteps uint16) {
		k, cls := generatedKernel(t, seed, idx)
		rng := rand.New(rand.NewSource(seed))
		tasks := make([]jvmsim.Val, int(n%8)+1)
		for i := range tasks {
			tasks[i] = soakVal(k.NewTask(rng))
		}
		diffClass(t, cls, tasks, int64(maxSteps))
	})
}
