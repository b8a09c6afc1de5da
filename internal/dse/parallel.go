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

	"s2fa/internal/cir"
	"s2fa/internal/hls"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// The concurrent engine (Config.Engine == EngineParallel).
//
// The sequential engine is an inherently serial adaptive search: each
// proposal depends on every result absorbed before it. What is NOT
// serial is the expensive part — Merlin annotation plus HLS estimation
// is a pure function of the design point. The engine therefore splits
// the run in two:
//
//   - A merge goroutine replays the exact sequential schedule: earliest
//     virtual clock first, FCFS partitions, per-worker drivers and
//     stoppers, identical trace accounting. It is the only goroutine
//     that touches search state.
//   - An evaluation pool of Parallelism goroutines speculatively
//     computes pure evaluations into a shared sharded cache
//     (hls.Cache). The merge goroutine announces upcoming points
//     (training samples, seeds, pre-proposed batches) and later fetches
//     the results; if a result is not ready — or was never dispatched —
//     it computes inline, so the pool can only help, never change
//     anything.
//
// Pre-proposing is sound because a driver's proposals depend only on
// its own worker-local state (bandit, RNG, result DB), all of which is
// final by the time the previous batch has been committed; the merge
// loop proposes each worker's next batch immediately after absorbing
// its current one, then evaluations overlap across workers while the
// merge loop services whichever worker's clock is earliest.
//
// Freshness replay is what keeps Minutes accounting byte-identical: the
// sequential memo charges synthesis minutes on first evaluation of a
// point and zero after. The merge goroutine keeps its own replay-order
// `seen` set and assigns fresh-vs-cached Minutes from THAT order, so it
// does not matter which goroutine actually computed the value or when.
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

func runParallel(k *cir.Kernel, sp *space.Space, pure tuner.Evaluator, cfg Config) *Outcome {
	out := newOutcome(k)
	points := space.NewTable(sp)
	pool := newEvalPool(cfg.poolSize(), k.Name, pure, points)
	defer pool.close(cfg.Trace)
	eval := guardEvaluator(k, sp, points, pool.replayEvaluator(cfg.Trace), cfg, out)
	var parts []Partition
	if cfg.Partition != nil {
		parts = buildPartitions(sp, k, eval, *cfg.Partition, cfg.Seed, pool.prefetch)
	} else {
		parts = []Partition{{}}
	}
	out.Partitions = parts

	ps := &parScheduler{cfg: cfg, pool: pool}
	ps.s = newSchedulerHooked(cfg, sp, points, parts, eval, out, ps.prepare)
	ps.run()
	return finishOutcome(out, ps.s)
}

// parScheduler drives the merge goroutine: the sequential scheduler's
// loop and accounting, with evaluation batches pre-proposed and handed
// to the pool one iteration ahead.
type parScheduler struct {
	cfg  Config
	pool *evalPool
	s    *scheduler
}

// prepare pre-proposes w's next iteration and dispatches its points to
// the pool. Called right after a partition is assigned and after every
// absorbed batch, i.e. at exactly the driver state the sequential
// engine would propose from. Workers at the time limit propose nothing:
// the sequential engine checks the budget before stepping, and a
// proposal here would consume driver RNG state it never consumes.
func (ps *parScheduler) prepare(w *worker) {
	if w.done || w.hasPending || w.clock >= ps.cfg.TimeLimitMinutes {
		return
	}
	w.hasPending = true
	if len(w.seeds) > 0 {
		seedPt := w.seeds[0]
		w.seeds = w.seeds[1:]
		w.pendingSeed = &seedPt
		ps.pool.prefetchPart(ps.pool.points.ID(seedPt), seedPt, w.part)
		return
	}
	w.pendingProps = w.driver.Propose(ps.cfg.BatchPerIter)
	for _, p := range w.pendingProps {
		ps.pool.prefetchPart(p.ID, p.Point, w.part)
	}
}

// run is the sequential scheduler loop verbatim, stepping through the
// pre-proposed batches.
func (ps *parScheduler) run() {
	s := ps.s
	for {
		w := s.earliest()
		if w == nil {
			return
		}
		if s.evals >= s.cfg.MaxEvaluations {
			s.hitMaxEvals = true
			for _, w := range s.workers {
				s.endPartitionSpan(w, "max-evaluations")
			}
			return
		}
		ps.step(w)
	}
}

// step mirrors scheduler.step exactly, except that the seed or batch to
// evaluate was proposed ahead of time by prepare. Evaluations go through
// the same chain (prune guard -> replay memo), so every Minutes charge,
// cache hit, and counter lands as in the sequential engine.
func (ps *parScheduler) step(w *worker) {
	s := ps.s
	if w.clock >= s.cfg.TimeLimitMinutes {
		s.sawTimeout = true
		s.endPartitionSpan(w, "timeout")
		w.done = true
		w.part = -1
		return
	}
	if !w.hasPending {
		ps.prepare(w)
	}
	var results []tuner.Result
	var iterMinutes float64
	if w.pendingSeed != nil {
		seedPt := *w.pendingSeed
		w.pendingSeed = nil
		w.hasPending = false
		r := w.driver.InjectSeed(seedPt)
		results = []tuner.Result{r}
		iterMinutes = r.Minutes
	} else {
		props := w.pendingProps
		w.pendingProps = nil
		w.hasPending = false
		if len(props) == 0 {
			// Partition exhausted (tiny sub-space).
			s.finishPartition(w, "exhausted")
			return
		}
		results = make([]tuner.Result, 0, len(props))
		for _, p := range props {
			r, _ := w.driver.Commit(p, s.eval(p.Point))
			results = append(results, r)
			if r.Minutes > iterMinutes {
				iterMinutes = r.Minutes
			}
		}
	}
	s.absorb(w, results, iterMinutes)
	if !w.done {
		// Same partition, next iteration (a partition hand-off already
		// prepared via the assign hook).
		ps.prepare(w)
	}
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
// sharded cache the merge goroutine reads results from. The cache keys
// on the run's point table; only the merge goroutine computes IDs, and
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

	// Merge-goroutine-only replay accounting.
	freshReplays int
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
		//determinism:allow telemetry-only: pool wall time never reaches results (replay is deterministic)
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
		// merge goroutine computing the same point inline.
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

// replayEvaluator is the base of the merge goroutine's evaluator chain:
// it reproduces the sequential memoizing evaluator (NewTracedEvaluator)
// exactly — first evaluation of a point in REPLAY order charges the
// fresh synthesis minutes, repeats cost zero — while sourcing values from
// the shared cache, computing inline whenever the pool has not finished
// (or never saw) the point. Must only be called from the merge goroutine.
func (p *evalPool) replayEvaluator(tr *obs.Trace) tuner.Evaluator {
	var seen space.IDSet
	return func(pt space.Point) tuner.Result {
		id := p.points.ID(pt)
		if seen.Has(id) {
			r, ok := p.cache.Peek(id)
			if !ok {
				// Unreachable (the first replay of id completed the
				// entry), kept as a safety net.
				r, _ = p.cache.GetOrCompute(id, func() tuner.Result { return p.pure(pt) })
			}
			r.Point = pt
			r.Minutes = 0 // cached HLS report, no synthesis re-run
			if tr != nil {
				hit := tr.Begin("hls", "estimate",
					obs.Str("point", pt.Key()), obs.Str("cache", "hit"))
				hit.End(obs.F64("synth_min", 0), obs.Bool("feasible", r.Feasible))
				tr.Count("hls.cache_hits", 1)
			}
			return r
		}
		seen.Add(id)
		p.freshReplays++
		var span *obs.Span
		if tr != nil {
			span = tr.Begin("hls", "estimate",
				obs.Str("point", pt.Key()), obs.Str("cache", "fresh"))
			tr.Count("hls.estimations", 1)
		}
		t0 := time.Now() //determinism:allow telemetry-only: merge-stall timing never reaches results
		r, _ := p.cache.GetOrCompute(id, func() tuner.Result { return p.pure(pt) })
		p.mergeStallNS += time.Since(t0).Nanoseconds()
		// Merlin-rejected points carry a nil Meta (estimated results
		// always carry their hls.Report).
		span.End(estimateEndKVs(r, r.Meta == nil && !r.Feasible)...)
		tr.Observe("hls_synth_minutes", r.Minutes)
		r.Point = pt
		return r
	}
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
	// Keys computed but never replayed: pruned, collapsed, or abandoned
	// proposals. This is the price of speculation, in estimations.
	tr.Count("dse.par.speculative_waste", st.Misses-int64(p.freshReplays))
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
