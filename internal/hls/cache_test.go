package hls

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheComputesOncePerKey(t *testing.T) {
	c := NewCache[int32, int](8)
	var computes atomic.Int64
	const keys = 40
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				want := i * 3
				v, _ := c.GetOrCompute(int32(i), func() int {
					computes.Add(1)
					return want
				})
				if v != want {
					t.Errorf("key %d: got %d want %d", i, v, want)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := computes.Load(); got != keys {
		t.Fatalf("computed %d times, want exactly %d (one per key)", got, keys)
	}
	st := c.Stats()
	if st.Misses != keys {
		t.Fatalf("misses = %d, want %d", st.Misses, keys)
	}
	if st.Hits+st.Contended != keys*(goroutines-1) {
		t.Fatalf("hits+contended = %d, want %d", st.Hits+st.Contended, keys*(goroutines-1))
	}
	if st.Entries != keys {
		t.Fatalf("entries = %d, want %d", st.Entries, keys)
	}
}

func TestCacheSingleShard(t *testing.T) {
	// One stripe still dedups and serves concurrent readers.
	c := NewCache[int32, int](1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v, _ := c.GetOrCompute(int32(i), func() int { return i })
				if v != i {
					t.Errorf("got %d want %d", v, i)
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() != 20 {
		t.Fatalf("Len = %d", c.Len())
	}
}
