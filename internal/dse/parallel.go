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

	"s2fa/internal/hls"
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
//     one is absorbed) and a pool of Parallelism goroutines computes
//     their pure evaluations into a shared sharded cache (hls.Cache);
//   - the chain's fresh-estimate step reads the value from that cache by
//     ID, computing it inline if the pool has not finished (or never
//     saw) the point, so the pool can only help, never change anything.
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

// poolJob is one speculative evaluation request for the point pt with
// identity id. part is the partition index the proposing worker held
// (-1 when unknown, e.g. training samples dispatched before assignment),
// carried only as a pprof label.
type poolJob struct {
	id   space.ID
	pt   space.Point
	part int
	enq  time.Time
}

// evalPool runs pure evaluations on real goroutines, memoized in a
// sharded cache the scheduler reads results from. The cache keys
// on the run's point table; only the scheduler computes IDs, and
// jobs carry theirs to the pool.
type evalPool struct {
	pure   tuner.Evaluator
	kernel string // pprof label value attributing samples to the app
	points *space.Table
	cache  *hls.Cache[space.ID, tuner.Result]

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []poolJob
	closed bool
	wg     sync.WaitGroup

	started    time.Time
	dispatched atomic.Int64
	queueWait  atomic.Int64 // ns jobs spent queued before a pool worker picked them up
	busyNS     []int64      // per pool worker; written only by that worker, read after wg.Wait

	// Scheduler-goroutine-only fetch accounting.
	fetched      int
	mergeStallNS int64
}

func newEvalPool(workers int, kernel string, pure tuner.Evaluator, points *space.Table) *evalPool {
	if workers < 1 {
		workers = 1
	}
	p := &evalPool{
		pure:   pure,
		kernel: kernel,
		points: points,
		cache:  hls.NewCache[space.ID, tuner.Result](hls.DefaultCacheShards),
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

// prefetch queues pt for speculative evaluation with no partition
// attribution (training samples, partition probes).
func (p *evalPool) prefetch(pt space.Point) { p.prefetchPart(p.points.ID(pt), pt, -1) }

// prefetchPart queues pt, whose identity is id, for speculative
// evaluation. Never blocks: the queue is unbounded so the merge
// goroutine can always run ahead.
func (p *evalPool) prefetchPart(id space.ID, pt space.Point, part int) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	//determinism:allow telemetry-only: queue-wait timing never reaches results
	p.queue = append(p.queue, poolJob{id: id, pt: pt, part: part, enq: time.Now()})
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
		t0 := time.Now() //determinism:allow telemetry-only: worker busy time never reaches results
		// GetOrCompute dedups against other pool workers and against the
		// scheduler computing the same point inline.
		compute := func(context.Context) {
			p.cache.GetOrCompute(j.id, func() tuner.Result { return p.pure(j.pt) })
		}
		if j.part >= 0 {
			pprof.Do(ctx, pprof.Labels("s2fa_partition", strconv.Itoa(j.part)), compute)
		} else {
			compute(ctx)
		}
		p.busyNS[i] += time.Since(t0).Nanoseconds()
	}
}

// fetch returns the pure evaluation of pt, whose identity is id, from
// the shared cache, computing it inline when no pool worker has (or is
// about to). Only the scheduler's goroutine calls it, once per fresh
// estimation.
func (p *evalPool) fetch(id space.ID, pt space.Point) tuner.Result {
	p.fetched++
	t0 := time.Now() //determinism:allow telemetry-only: merge-stall timing never reaches results
	r, _ := p.cache.GetOrCompute(id, func() tuner.Result { return p.pure(pt) })
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
	st := p.cache.Stats()
	tr.Count("dse.par.dispatched", p.dispatched.Load())
	tr.Count("dse.par.abandoned", int64(abandoned))
	tr.Count("dse.par.cache.hits", st.Hits)
	tr.Count("dse.par.cache.misses", st.Misses)
	tr.Count("dse.par.cache.contended", st.Contended)
	// Keys computed but never fetched: pruned, collapsed, or abandoned
	// proposals. This is the price of speculation, in estimations.
	tr.Count("dse.par.speculative_waste", st.Misses-int64(p.fetched))
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
