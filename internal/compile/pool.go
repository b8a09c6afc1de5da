// Package compile holds allocation infrastructure shared by the compile
// pipeline's hot paths (kdsl parsing, bytecode verification, abstract
// interpretation): a string interner, a chunked slab allocator, and the
// bounded Pool each stage keeps its reusable state in.
//
// The package is a leaf — it imports nothing from this module — so every
// stage can depend on it without cycles. Each stage owns a typed state
// struct and a package-level Pool of them; an entry point takes one
// state from the pool, runs, and puts it back, so callers never see the
// buffers and concurrent callers never share one.
package compile

import "runtime"

// Pool is a bounded free list of reusable values: the compiler-side
// analogue of jvmsim's frame arena. Get hands out an idle value or a
// fresh zero one; Put keeps a value for the next Get unless the pool
// already holds its bound (GOMAXPROCS at construction), in which case
// the value is dropped for the GC. Neither call blocks. Safe for
// concurrent use.
//
// Unlike sync.Pool, idle values survive garbage collections, so a
// grown arena is not thrown away and regrown between compilations.
type Pool[T any] struct {
	free chan *T
}

// NewPool returns an empty pool bounded at GOMAXPROCS idle values: no
// more compilations than that execute at any instant, so the bound
// covers the steady state, while the states a burst of extra goroutines
// allocated are dropped instead of pinned.
func NewPool[T any]() *Pool[T] {
	return &Pool[T]{free: make(chan *T, runtime.GOMAXPROCS(0))}
}

// Get returns an idle value, or a new zero T when none is idle.
func (p *Pool[T]) Get() *T {
	select {
	case v := <-p.free:
		return v
	default:
		return new(T)
	}
}

// Put returns v to the pool; the caller must not use it afterwards.
func (p *Pool[T]) Put(v *T) {
	select {
	case p.free <- v:
	default:
	}
}
