package exp

import (
	"testing"

	"s2fa/internal/absint"
	"s2fa/internal/apps"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
)

// sequentialCounts runs the batch the way the unsharded baseline does:
// one VM, one CallBatch.
func sequentialCounts(t *testing.T, cls *bytecode.Class, tasks []jvmsim.Val, jit bool) (jvmsim.Counts, error) {
	t.Helper()
	vm := jvmsim.New(cls)
	if jit && !vm.TryJIT() {
		t.Fatal("TryJIT = false")
	}
	_, err := vm.CallBatch(tasks)
	return vm.Counts, err
}

// TestShardedBaselineMatchesSequential: on every app the sharded JIT
// baseline sums to exactly the Counts of one sequential CallBatch, for
// shard counts that divide the batch evenly, unevenly, and one task per
// shard.
func TestShardedBaselineMatchesSequential(t *testing.T) {
	for _, a := range apps.All() {
		cls, err := a.Class()
		if err != nil {
			t.Fatal(err)
		}
		if !shardable(cls) {
			t.Errorf("%s: absint does not prove the class pure", a.Name)
		}
		tasks := sampleTasks(a, a.Tasks)
		want, err := sequentialCounts(t, cls, tasks, true)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, shards := range []int{2, 5, len(tasks)} {
			got, err := runBaseline(cls, tasks, true, shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", a.Name, shards, err)
			}
			if got != want {
				t.Errorf("%s shards=%d: counts\n  got  %+v\n  want %+v", a.Name, shards, got, want)
			}
		}
	}
}

// TestImpureClassStaysUnsharded: a call that writes a class static makes
// tasks share mutable state, so the batch must run on one VM in order.
func TestImpureClassStaysUnsharded(t *testing.T) {
	cls, err := kdsl.CompileSource(`
class Tally extends Accelerator[Int, Int] {
  val id: String = "tally"
  val seen: Array[Int] = Array(0, 0)
  def call(in: Int): Int = {
    val s: Array[Int] = seen
    s(0) = s(0) + in
    s(0)
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	facts, err := absint.AnalyzeClass(cls)
	if err != nil {
		t.Fatal(err)
	}
	if facts.Pure() {
		t.Fatal("absint reports the static-writing call pure")
	}
	if shardable(cls) {
		t.Fatal("a class writing a static is shardable")
	}
	// The write is real: tasks see each other's effects.
	if _, err := jvmsim.New(cls).Call(jvmsim.Scalar(cir.IntVal(cir.Int, 5))); err != nil {
		t.Fatal(err)
	}
	if got := cls.Static("seen").Data[0].I; got != 5 {
		t.Fatalf("static after one task = %d, want 5", got)
	}
	if n := baselineShards(cls, true, JVMSampleTasks); n != 1 {
		t.Errorf("baselineShards = %d, want 1", n)
	}
}

// TestShardedBaselineTrapMatchesSequential: when tasks trap, the sharded
// batch returns the lowest-index failing task's error, word for word the
// error of the sequential batch, whichever shard that task lands in.
func TestShardedBaselineTrapMatchesSequential(t *testing.T) {
	cls, err := kdsl.CompileSource(`
class Pick extends Accelerator[Array[Int], Int] {
  val id: String = "pick"
  val inSizes: Array[Int] = Array(4)
  def call(in: Array[Int]): Int = {
    in(3)
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !shardable(cls) {
		t.Fatal("a read-only kernel is not shardable")
	}
	batch := func(lens map[int]int) []jvmsim.Val {
		tasks := make([]jvmsim.Val, JVMSampleTasks)
		for i := range tasks {
			n, ok := lens[i]
			if !ok {
				n = 4
			}
			arr := make([]cir.Value, n)
			for j := range arr {
				arr[j] = cir.IntVal(cir.Int, int64(i))
			}
			tasks[i] = jvmsim.Array(arr)
		}
		return tasks
	}
	// Tasks k trap with "(length lens[k])", so the error names the task.
	for _, lens := range []map[int]int{
		{5: 2, 17: 1},
		{17: 1},
		{0: 3, 23: 1},
		{23: 2},
	} {
		tasks := batch(lens)
		_, want := sequentialCounts(t, cls, tasks, true)
		if want == nil {
			t.Fatalf("lens %v: sequential batch did not trap", lens)
		}
		_, interp := sequentialCounts(t, cls, tasks, false)
		if interp == nil || interp.Error() != want.Error() {
			t.Fatalf("lens %v: interpreter error %v, JIT error %v", lens, interp, want)
		}
		for _, shards := range []int{2, 3, 5, len(tasks)} {
			_, err := runBaseline(cls, tasks, true, shards)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("lens %v shards=%d: error %v, want %v", lens, shards, err, want)
			}
		}
	}
}
