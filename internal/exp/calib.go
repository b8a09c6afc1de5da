// Package exp regenerates every table and figure of the paper's
// evaluation (§5): the DSE trajectory comparison of Fig. 3, the resource
// utilization and frequency table (Table 2), the speedup-over-JVM
// comparison of Fig. 4, the Table 1 design-space summary, and the
// stopping-criteria ablation discussed in §5.2.
package exp

import (
	"math/rand"
	"runtime"
	"sync"

	"s2fa/internal/absint"
	"s2fa/internal/apps"
	"s2fa/internal/bytecode"
	"s2fa/internal/jvmsim"
	"s2fa/internal/obs"
)

// Calibration constants: the few free parameters of the whole performance
// model live here (DESIGN.md "Calibration"). Everything else is derived.
const (
	// JVMSampleTasks is the number of tasks actually executed to measure
	// per-task JVM cost; totals scale linearly (workloads are
	// data-independent in instruction count to first order).
	JVMSampleTasks = 24
)

// JVMSecondsForEngine models the single-threaded Spark executor time
// for n tasks of the app by executing a sample batch and scaling. The
// modeled seconds depend only on Counts, which the typed JIT
// (jit=true, what the suite and the s2fa CLI run) preserves
// bit-for-bit, so both engines give the same value; jit=false runs the
// reference interpreter, the oracle the golden test and s2fa-bench
// compare against. An optional trace receives the per-app baseline span
// and compile telemetry. The JIT batch of a class absint proves pure
// runs in GOMAXPROCS contiguous shards (see runBaseline); the
// interpreter path stays sequential.
func JVMSecondsForEngine(a *apps.App, n int, jit bool, tr *obs.Trace) (float64, error) {
	cls, err := a.Class()
	if err != nil {
		return 0, err
	}
	tasks := sampleTasks(a, n)
	sample := len(tasks)
	if jit {
		sp := tr.Begin("jvm", "jit.compile", obs.Str("app", a.Name))
		p, err := jvmsim.CompileCached(cls)
		var st jvmsim.JITStats
		if err == nil {
			st = p.Stats()
		}
		sp.End(obs.Int("ops", st.Ops), obs.Int("fused", st.Fused))
		if err != nil {
			return 0, err
		}
		tr.Count("jvmsim.jit.compiles", 1)
		tr.Count("jvmsim.jit.fused", int64(st.Fused))
	}
	shards := baselineShards(cls, jit, sample)
	sp := tr.Begin("jvm", "baseline", obs.Str("app", a.Name),
		obs.Int("tasks", sample), obs.Bool("jit", jit), obs.Int("shards", shards))
	counts, err := runBaseline(cls, tasks, jit, shards)
	sp.End()
	if err != nil {
		return 0, err
	}
	tr.Count("jvmsim.tasks", int64(sample))
	cm := jvmsim.DefaultCostModel()
	perTask := cm.Nanoseconds(counts) / float64(sample)
	return perTask * float64(n) / 1e9, nil
}

// sampleTasks returns the sample batch the baseline of n tasks executes.
func sampleTasks(a *apps.App, n int) []jvmsim.Val {
	return a.Gen(rand.New(rand.NewSource(2026)), min(JVMSampleTasks, n))
}

// baselineShards is the number of shards runBaseline splits a batch of
// n tasks into: min(GOMAXPROCS, n) for the JIT on a shardable class,
// otherwise 1.
func baselineShards(cls *bytecode.Class, jit bool, n int) int {
	if !jit || n <= 1 || !shardable(cls) {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), n)
}

// runBaseline executes the sample batch and returns its Counts. With
// shards > 1 the batch splits into that many contiguous shards, each on
// its own VM over the one cached program; Counts are summed in shard
// order, and the error is the first failing shard's, which is the error
// of the lowest-index failing task, exactly what the sequential batch
// returns. Sharding is sound only for classes whose tasks share no
// mutable state (see shardable).
func runBaseline(cls *bytecode.Class, tasks []jvmsim.Val, jit bool, shards int) (jvmsim.Counts, error) {
	run := func(part []jvmsim.Val) (jvmsim.Counts, error) {
		vm := jvmsim.New(cls)
		if jit {
			vm.TryJIT() // JVMSecondsForEngine has compiled the class
		}
		_, err := vm.CallBatch(part)
		return vm.Counts, err
	}
	if shards <= 1 {
		return run(tasks)
	}
	counts := make([]jvmsim.Counts, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	part := func(s int) []jvmsim.Val { return tasks[s*len(tasks)/shards : (s+1)*len(tasks)/shards] }
	for s := 1; s < shards; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts[s], errs[s] = run(part(s))
		}()
	}
	// The caller runs the first shard itself. Handing every shard to a
	// new goroutine parks the caller, and the DSE run that follows the
	// baseline in a suite op measured about 5% slower after it.
	counts[0], errs[0] = run(part(0))
	wg.Wait()
	var total jvmsim.Counts
	for s := range shards {
		if errs[s] != nil {
			return jvmsim.Counts{}, errs[s]
		}
		total.Add(counts[s])
	}
	return total, nil
}

// pureClasses memoizes shardable per class.
var pureClasses sync.Map // *bytecode.Class -> bool

// shardable reports whether absint proves the class pure: no stores to
// statics or argument arrays, so its tasks share no mutable state and
// may run on separate VMs in any order. The verdict is computed once
// per class.
func shardable(cls *bytecode.Class) bool {
	if v, ok := pureClasses.Load(cls); ok {
		return v.(bool)
	}
	facts, err := absint.AnalyzeClass(cls)
	pure := err == nil && facts.Pure()
	pureClasses.Store(cls, pure)
	return pure
}
