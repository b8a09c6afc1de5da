package dse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// The parallel engine's evaluation pool (Config.Engine ==
// EngineParallel).
//
// The search is an inherently serial adaptive loop: each proposal
// depends on every result absorbed before it. What is NOT serial is the
// expensive part — Merlin validation plus HLS estimation is a pure
// function of the design point. Under EngineParallel the one scheduler
// loop (dse.go) still runs every worker, driver, stopper, guard row and
// trace event on the calling goroutine, in the sequential order; the
// pool only prefetches:
//
//   - the scheduler announces upcoming points (training samples, seeds,
//     each worker's next iteration, pre-proposed as soon as the previous
//     one is absorbed), each point once, and a pool of Parallelism
//     goroutines computes their pure evaluations into one slot per
//     announced point;
//   - the chain's fresh-estimate step fetches the value from the
//     point's slot, computing it inline if no pool worker has claimed
//     it (or the point was never announced), so the pool can only help,
//     never change anything. The fetch hands the value over to the
//     prune guard's identity row, which is the run's one memo: the slot
//     keeps nothing once it has been fetched.
//
// Pre-proposing is sound because a driver's proposals depend only on
// its own worker-local state (bandit, RNG, result DB), all of which is
// final once the previous iteration has been committed. Minutes stay
// byte-identical because the prune guard decides fresh versus repeat in
// the scheduler's order, whichever goroutine computed the value.
//
// Two observable differences remain, neither affecting the Outcome:
// trace events for pre-proposed bandit selections interleave earlier
// across tracks than in the sequential engine (per-track content is
// identical), and a worker cut off by MaxEvaluations may have proposed
// one batch it never evaluates (extra select events; bandit state dies
// with the run).

// poolSize resolves Config.Parallelism.
func (c Config) poolSize() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// slot is one announced point's evaluation. Whoever wins claimed
// computes the value: a pool worker, which stores it in res and closes
// done, or the scheduler's fetch inline.
type slot struct {
	claimed atomic.Bool
	done    chan struct{}
	res     tuner.Result
}

// poolJob is one speculative evaluation request for the point pt,
// whose value goes to s. part is the partition index the proposing
// worker held (-1 when unknown, e.g. training samples dispatched before
// assignment), carried only as a pprof label.
type poolJob struct {
	s    *slot
	pt   space.Point
	part int
	enq  time.Time
}

// evalPool runs pure evaluations on real goroutines, one slot per
// announced point. Only the scheduler's goroutine announces, fetches
// and touches slots; pool workers reach a slot only through its job.
type evalPool struct {
	pure   tuner.Evaluator
	kernel string // pprof label value attributing samples to the app
	slots  map[space.ID]*slot

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []poolJob
	closed bool
	wg     sync.WaitGroup

	started    time.Time
	dispatched atomic.Int64
	misses     atomic.Int64 // pure evaluations run, by pool workers or inline
	queueWait  atomic.Int64 // ns jobs spent queued before a pool worker picked them up
	busyNS     []int64      // per pool worker; written only by that worker, read after wg.Wait

	// Scheduler-goroutine-only fetch accounting.
	fetched      int
	hits         int // fetches that found a finished value
	contended    int // fetches that waited on a pool worker
	mergeStallNS int64
}

func newEvalPool(workers int, kernel string, pure tuner.Evaluator) *evalPool {
	if workers < 1 {
		workers = 1
	}
	p := &evalPool{
		pure:   pure,
		kernel: kernel,
		slots:  map[space.ID]*slot{},
		busyNS: make([]int64, workers),
		//determinism:allow telemetry-only: pool wall time never reaches results
		started: time.Now(),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		// pprof labels attribute CPU samples to search structure: which
		// pool worker and which app the sample belongs to. Labels are
		// profiler metadata only — they never touch evaluation results,
		// so the cross-engine determinism property holds with profiling
		// on (covered by core.TestTracingDeterminism).
		go pprof.Do(context.Background(),
			pprof.Labels("s2fa_pool_worker", strconv.Itoa(i), "s2fa_kernel", kernel),
			func(ctx context.Context) { p.worker(ctx, i) })
	}
	return p
}

// prefetch queues pt, whose identity is id, for speculative evaluation
// unless it was already announced. part is the proposing worker's
// partition (-1: none). Never blocks: the queue is unbounded so the
// scheduler can always run ahead.
func (p *evalPool) prefetch(id space.ID, pt space.Point, part int) {
	if _, ok := p.slots[id]; ok {
		return
	}
	s := &slot{done: make(chan struct{})}
	p.slots[id] = s
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	//determinism:allow telemetry-only: queue-wait timing never reaches results
	p.queue = append(p.queue, poolJob{s: s, pt: pt, part: part, enq: time.Now()})
	p.mu.Unlock()
	p.cond.Signal()
	p.dispatched.Add(1)
}

func (p *evalPool) worker(ctx context.Context, i int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		j := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.queueWait.Add(time.Since(j.enq).Nanoseconds())
		if !j.s.claimed.CompareAndSwap(false, true) {
			continue // the scheduler is computing it inline
		}
		t0 := time.Now() //determinism:allow telemetry-only: worker busy time never reaches results
		compute := func(context.Context) {
			p.misses.Add(1)
			j.s.res = p.pure(j.pt)
			close(j.s.done)
		}
		if j.part >= 0 {
			pprof.Do(ctx, pprof.Labels("s2fa_partition", strconv.Itoa(j.part)), compute)
		} else {
			compute(ctx)
		}
		p.busyNS[i] += time.Since(t0).Nanoseconds()
	}
}

// fetch returns the pure evaluation of pt, whose identity is id,
// computing it inline when pt was never announced or no pool worker
// has claimed it, and clears the slot: the caller holds the only copy
// from then on. Only the scheduler's goroutine calls it, at most once
// per ID (the prune guard's identity row serves every repeat).
func (p *evalPool) fetch(id space.ID, pt space.Point) tuner.Result {
	p.fetched++
	t0 := time.Now() //determinism:allow telemetry-only: merge-stall timing never reaches results
	s := p.slots[id]
	var r tuner.Result
	if s == nil || s.claimed.CompareAndSwap(false, true) {
		p.misses.Add(1)
		r = p.pure(pt)
	} else {
		select {
		case <-s.done:
			p.hits++
		default:
			p.contended++
			<-s.done
		}
		r, s.res = s.res, tuner.Result{}
	}
	p.mergeStallNS += time.Since(t0).Nanoseconds()
	return r
}

// close stops the pool, abandoning still-queued speculative jobs, and
// emits the engine's contention/utilization counters to tr.
func (p *evalPool) close(tr *obs.Trace) {
	p.mu.Lock()
	p.closed = true
	abandoned := len(p.queue)
	p.queue = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	if tr == nil {
		return
	}
	elapsed := time.Since(p.started).Nanoseconds()
	misses := p.misses.Load()
	tr.Count("dse.par.dispatched", p.dispatched.Load())
	tr.Count("dse.par.abandoned", int64(abandoned))
	tr.Count("dse.par.cache.hits", int64(p.hits))
	tr.Count("dse.par.cache.misses", misses)
	tr.Count("dse.par.cache.contended", int64(p.contended))
	// Points computed but never fetched: pruned, collapsed, or abandoned
	// proposals. This is the price of speculation, in estimations.
	tr.Count("dse.par.speculative_waste", misses-int64(p.fetched))
	tr.Count("dse.par.queue_wait_us", p.queueWait.Load()/1000)
	tr.Count("dse.par.merge_stall_us", p.mergeStallNS/1000)
	for i, ns := range p.busyNS {
		tr.Count(fmt.Sprintf("dse.par.worker%d.busy_us", i), ns/1000)
		if elapsed > 0 {
			tr.Gauge(fmt.Sprintf("dse.par.worker%d.utilization", i),
				float64(ns)/float64(elapsed))
		}
	}
}
