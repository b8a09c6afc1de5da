package compile

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolKeepsAtMostBound(t *testing.T) {
	p := NewPool[int]()
	bound := runtime.GOMAXPROCS(0)
	put := map[*int]bool{}
	for i := 0; i < bound+3; i++ {
		v := new(int)
		put[v] = true
		p.Put(v)
	}
	if got := len(p.free); got != bound {
		t.Fatalf("pool holds %d idle values, want its bound %d", got, bound)
	}
	for i := 0; i < bound; i++ {
		if v := p.Get(); !put[v] {
			t.Fatalf("Get %d returned a value that was never put", i)
		}
	}
	if v := p.Get(); put[v] || *v != 0 {
		t.Fatal("Get on an empty pool must return a fresh zero value")
	}
}

func TestPoolNeverSharesAValue(t *testing.T) {
	type slot struct{ inUse atomic.Bool }
	p := NewPool[slot]()
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := p.Get()
				if !v.inUse.CompareAndSwap(false, true) {
					t.Error("one value handed to two concurrent Gets")
					return
				}
				runtime.Gosched()
				v.inUse.Store(false)
				p.Put(v)
			}
		}()
	}
	wg.Wait()
}
