package spark

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func nums(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestParallelizeCollectRoundTrip(t *testing.T) {
	ctx := NewContext()
	f := func(data []int16) bool {
		ints := make([]int, len(data))
		for i, v := range data {
			ints[i] = int(v)
		}
		got := Parallelize(ctx, ints, 3).Collect()
		if len(got) != len(ints) {
			return false
		}
		for i := range got {
			if got[i] != ints[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapReduce(t *testing.T) {
	ctx := NewContext()
	rdd := Parallelize(ctx, nums(100), 7)
	squares := Map(rdd, func(x int) int { return x * x })
	sum := Reduce(squares, func(a, b int) int { return a + b })
	want := 0
	for i := 0; i < 100; i++ {
		want += i * i
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestCountAndPartitions(t *testing.T) {
	ctx := NewContext()
	rdd := Parallelize(ctx, nums(10), 4)
	if rdd.Count() != 10 {
		t.Errorf("count = %d", rdd.Count())
	}
	if rdd.NumPartitions() != 4 {
		t.Errorf("partitions = %d", rdd.NumPartitions())
	}
	// More partitions than elements collapses to the element count.
	small := Parallelize(ctx, nums(2), 8)
	if small.NumPartitions() != 2 {
		t.Errorf("small partitions = %d", small.NumPartitions())
	}
	empty := Parallelize(ctx, nums(0), 4)
	if empty.Count() != 0 {
		t.Error("empty count")
	}
}

func TestCacheComputesOnce(t *testing.T) {
	ctx := NewContext()
	var evals int64
	base := Parallelize(ctx, nums(50), 5)
	mapped := Map(base, func(x int) int {
		atomic.AddInt64(&evals, 1)
		return x + 1
	}).Cache()
	mapped.Collect()
	first := atomic.LoadInt64(&evals)
	mapped.Collect()
	mapped.Count()
	if got := atomic.LoadInt64(&evals); got != first {
		t.Errorf("cached RDD recomputed: %d -> %d evaluations", first, got)
	}
	if first != 50 {
		t.Errorf("first materialization evaluated %d elements", first)
	}
}

func TestUncachedRecomputes(t *testing.T) {
	ctx := NewContext()
	var evals int64
	mapped := Map(Parallelize(ctx, nums(10), 2), func(x int) int {
		atomic.AddInt64(&evals, 1)
		return x
	})
	mapped.Collect()
	mapped.Collect()
	if got := atomic.LoadInt64(&evals); got != 20 {
		t.Errorf("lazy RDD evaluated %d times, want 20", got)
	}
}

func TestReduceSingleElement(t *testing.T) {
	ctx := NewContext()
	got := Reduce(Parallelize(ctx, []int{42}, 1), func(a, b int) int { return a + b })
	if got != 42 {
		t.Errorf("reduce single = %d", got)
	}
}

func TestChainedLaziness(t *testing.T) {
	ctx := NewContext()
	// Build a long lineage and make sure nothing executes until Collect.
	var evals int64
	r := Parallelize(ctx, nums(10), 2)
	for i := 0; i < 5; i++ {
		r = Map(r, func(x int) int {
			atomic.AddInt64(&evals, 1)
			return x + 1
		})
	}
	if atomic.LoadInt64(&evals) != 0 {
		t.Fatal("lineage executed before an action")
	}
	out := r.Collect()
	if out[0] != 5 {
		t.Errorf("first element = %d, want 5", out[0])
	}
}
