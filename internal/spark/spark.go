// Package spark is a miniature Apache Spark: resilient distributed
// datasets with lazy transformations, partitioned parallel execution, and
// in-memory caching (paper §2). It exists so the Blaze runtime
// (internal/blaze) has a real host framework to integrate accelerators
// into, and so examples read like the paper's Code 1.
package spark

import (
	"runtime"
	"sync"
)

// Context configures a mini Spark application.
type Context struct {
	// Parallelism is the number of executor threads used for RDD
	// computation (defaults to GOMAXPROCS).
	Parallelism int
}

// NewContext returns a local execution context.
func NewContext() *Context {
	return &Context{Parallelism: runtime.GOMAXPROCS(0)}
}

// RDD is a resilient distributed dataset: an immutable, lazily computed,
// partitioned collection.
type RDD[T any] struct {
	ctx     *Context
	numPart int
	compute func(part int) []T

	mu      sync.Mutex
	cache   [][]T
	cached  bool
	doCache bool
}

// Parallelize distributes a slice across numPart partitions.
func Parallelize[T any](ctx *Context, data []T, numPart int) *RDD[T] {
	if numPart <= 0 {
		numPart = ctx.Parallelism
	}
	if numPart > len(data) && len(data) > 0 {
		numPart = len(data)
	}
	if numPart == 0 {
		numPart = 1
	}
	chunk := (len(data) + numPart - 1) / numPart
	return &RDD[T]{
		ctx:     ctx,
		numPart: numPart,
		compute: func(p int) []T {
			lo := p * chunk
			hi := lo + chunk
			if lo > len(data) {
				lo = len(data)
			}
			if hi > len(data) {
				hi = len(data)
			}
			return data[lo:hi]
		},
	}
}

// Context returns the RDD's context.
func (r *RDD[T]) Context() *Context { return r.ctx }

// NumPartitions returns the partition count.
func (r *RDD[T]) NumPartitions() int { return r.numPart }

// Cache marks the RDD for in-memory caching after first materialization,
// the trait that makes Spark effective for iterative ML (paper §2).
func (r *RDD[T]) Cache() *RDD[T] {
	r.doCache = true
	return r
}

// Partition materializes one partition, honoring the cache.
func (r *RDD[T]) Partition(p int) []T {
	r.mu.Lock()
	if r.cached {
		out := r.cache[p]
		r.mu.Unlock()
		return out
	}
	r.mu.Unlock()
	return r.compute(p)
}

// materializeAll computes all partitions in parallel.
func (r *RDD[T]) materializeAll() [][]T {
	r.mu.Lock()
	if r.cached {
		out := r.cache
		r.mu.Unlock()
		return out
	}
	r.mu.Unlock()

	parts := make([][]T, r.numPart)
	var wg sync.WaitGroup
	sem := make(chan struct{}, r.ctx.Parallelism)
	for p := 0; p < r.numPart; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			parts[p] = r.compute(p)
		}(p)
	}
	wg.Wait()

	if r.doCache {
		r.mu.Lock()
		if !r.cached {
			r.cache = parts
			r.cached = true
		}
		r.mu.Unlock()
	}
	return parts
}

// Collect materializes the full dataset.
func (r *RDD[T]) Collect() []T {
	parts := r.materializeAll()
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Count returns the number of elements.
func (r *RDD[T]) Count() int {
	n := 0
	for _, p := range r.materializeAll() {
		n += len(p)
	}
	return n
}

// Map applies f lazily to every element.
func Map[T, U any](r *RDD[T], f func(T) U) *RDD[U] {
	return &RDD[U]{
		ctx:     r.ctx,
		numPart: r.numPart,
		compute: func(p int) []U {
			in := r.Partition(p)
			out := make([]U, len(in))
			for i, v := range in {
				out[i] = f(v)
			}
			return out
		},
	}
}

// Reduce folds the dataset with an associative combiner. The dataset must
// be non-empty.
func Reduce[T any](r *RDD[T], f func(T, T) T) T {
	parts := r.materializeAll()
	var acc T
	seeded := false
	for _, p := range parts {
		for _, v := range p {
			if !seeded {
				acc = v
				seeded = true
				continue
			}
			acc = f(acc, v)
		}
	}
	return acc
}
