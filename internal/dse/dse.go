package dse

import (
	"math"

	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// StopReason classifies why a DSE run terminated — without it an
// entropy-converged run and one killed by the 4-hour budget are
// indistinguishable in the Fig. 3 summary.
type StopReason string

const (
	// StopEntropyConverged: every partition ended because its stopping
	// criterion fired (within budget).
	StopEntropyConverged StopReason = "entropy-converged"
	// StopBudgetExhausted: the virtual time limit or the evaluation
	// budget cut the search short.
	StopBudgetExhausted StopReason = "budget-exhausted"
	// StopSpaceExhausted: every partition ran out of unevaluated points
	// before any criterion or budget fired.
	StopSpaceExhausted StopReason = "space-exhausted"
)

// TrajPoint is one point of the best-so-far trajectory: the virtual DSE
// wall-clock (minutes) at which the incumbent objective (estimated kernel
// seconds) was achieved. Fig. 3 of the paper plots exactly this curve.
type TrajPoint struct {
	Minutes   float64
	Objective float64
}

// Outcome is the result of one DSE run.
type Outcome struct {
	KernelName string
	Best       tuner.Result
	// FirstFeasible is the objective of the first feasible point
	// evaluated; Fig. 3 normalizes trajectories against the vanilla
	// run's random first point.
	FirstFeasible float64
	// FirstFeasibleMinutes is the virtual time at which the first
	// feasible point appeared (NaN if none did). Seed generation's
	// headline effect: with the conservative seed this is the very first
	// evaluation; without it the search can stay trapped in the
	// infeasible region for hours (paper §4.3.2).
	FirstFeasibleMinutes float64
	Trajectory           []TrajPoint
	TotalMinutes         float64
	Evaluations          int
	// Partitions is the FCFS queue the run searched, in serving order.
	// A partition is its constraints and rule labels only; it keeps no
	// space or kernel alive (Partition.Space rebuilds its sub-box).
	Partitions []Partition
	// StaticallyPruned counts proposed points the guard's lint legality
	// rule rejected before evaluation (Config.Prune); each cost
	// microseconds instead of virtual synthesis minutes.
	StaticallyPruned int
	// PrunedDomainValues counts parameter-domain values space.PruneStatic
	// removed before the search started (e.g. flatten on a loop with a
	// variable-trip sub-loop).
	PrunedDomainValues int
	// DependPruned counts evaluations served from a dependence-equivalent
	// design's HLS report instead of a fresh estimation (the guard's
	// depend rule): parallel lanes on an unpipelined loop that provably
	// serializes are a hardware no-op, so the point shares its
	// parallel=1 sibling's report.
	DependPruned int
	// AccessPruned counts evaluations served from an access-equivalent
	// design's HLS report instead of a fresh estimation (the guard's
	// access rule): parallel factors above a loop's BRAM port-cap
	// replicate datapaths the banks cannot feed, so the point shares its
	// cap-clamped sibling's report.
	AccessPruned int
	// RangeCollapsed counts evaluations served from a width-equivalent
	// design's HLS report instead of a fresh estimation (the guard's
	// range rule); the value-range facts and the estimator's width model
	// prove the points indistinguishable.
	RangeCollapsed int
	// RangeRestrictedValues counts bit-width domain values of
	// proven-range buffers that the estimator's width model
	// (hls.WidthModel.Saturates) proves dominated by a narrower width.
	RangeRestrictedValues int
	// StopReason records what ended the run: entropy-converged,
	// budget-exhausted, or space-exhausted.
	StopReason StopReason
}

// BestAt returns the incumbent objective at virtual time t minutes
// (+Inf before the first feasible point).
func (o *Outcome) BestAt(t float64) float64 {
	best := math.Inf(1)
	for _, p := range o.Trajectory {
		if p.Minutes > t {
			break
		}
		best = p.Objective
	}
	return best
}

// Engine selects where the pure evaluations run. Both engines drive the
// same scheduler loop through the same evaluator chain (prune guard,
// then fresh estimation), so they produce byte-identical Outcomes and
// per-track traces; the engine only trades wall-clock time.
type Engine int

const (
	// EngineSequential evaluates every point inline on the calling
	// goroutine, proposing each worker's iteration when it is stepped.
	EngineSequential Engine = iota
	// EngineParallel also pre-proposes each worker's next iteration as
	// soon as the previous one is absorbed and hands its points to a
	// pool of real goroutines, so evaluations overlap across workers;
	// the scheduler takes each value from the point's pool slot. The
	// evaluator handed to Run must then be safe for concurrent callers
	// (NewEvaluator is).
	EngineParallel
)

// Config selects the DSE operating mode.
type Config struct {
	// Workers is the number of simulated CPU cores (8 in the paper).
	Workers int
	// Engine selects sequential reference execution or the concurrent
	// engine (see Engine constants). The zero value is sequential.
	Engine Engine
	// Parallelism is the evaluation-pool size for EngineParallel; values
	// < 1 default to GOMAXPROCS. It never affects results, only
	// wall-clock time.
	Parallelism int
	// TimeLimitMinutes bounds each worker's virtual clock (vanilla
	// OpenTuner's only systematic criterion: four hours).
	TimeLimitMinutes float64
	// Stopper is the per-partition early-stopping criterion.
	Stopper Stopper
	// Partition enables decision-tree design-space partitioning; nil
	// runs a single partition over the whole space.
	Partition *PartitionConfig
	// Seeded injects the performance-driven and area-driven seeds at the
	// start of each partition (paper §4.3.2); otherwise exploration
	// starts from a random point, like vanilla OpenTuner.
	Seeded bool
	// BatchPerIter is the number of candidates evaluated concurrently per
	// search iteration inside one partition. Vanilla OpenTuner spends its
	// 8 cores evaluating the top-8 candidates of a single search; S2FA
	// gives each partition one core (paper footnote 3).
	BatchPerIter int
	// Seed drives all pseudo-randomness.
	Seed int64
	// MaxEvaluations is a safety valve for tiny spaces.
	MaxEvaluations int
	// Prune installs the prune guard's rule table (guard.go): lint
	// illegal points are rejected for microseconds instead of synthesis
	// minutes, and points the HLS model provably cannot tell apart
	// (serialized lanes, port-starved lanes, equivalent interface
	// widths) share one estimation. The collapses leave the search
	// trajectory and best design exactly as without them; the outcome
	// counters record every rule's effect. The guard itself is always
	// there: without Prune it only serves exact repeats, for 0 minutes.
	Prune bool
	// Device supplies the DDR interface model for the guard's width
	// rule; nil defaults to the paper's VU9P.
	Device *fpga.Device
	// Trace, when set, receives the search telemetry: per-partition
	// spans on per-worker tracks, per-evaluation events (disposition,
	// objective, virtual clock), entropy-window values, bandit arm
	// selections, and incumbent updates. Tracing is strictly read-only —
	// a traced run follows a byte-identical trajectory.
	Trace *obs.Trace
}

// VanillaConfig reproduces the OpenTuner baseline of Fig. 3: no
// partitioning, no seeds, no early stop, 8 cores evaluating 8 candidates
// per iteration, 4-hour limit.
func VanillaConfig(seed int64) Config {
	return Config{
		Workers:          8,
		TimeLimitMinutes: 240,
		Stopper:          NeverStopper{},
		Seeded:           false,
		BatchPerIter:     8,
		Seed:             seed,
		MaxEvaluations:   200_000,
	}
}

// S2FAConfig reproduces the full S2FA DSE: decision-tree partitions
// scheduled FCFS over 8 cores, two seeds per partition, Shannon-entropy
// early stopping (4-hour safety limit).
func S2FAConfig(seed int64) Config {
	pc := DefaultPartitionConfig()
	return Config{
		Workers:          8,
		TimeLimitMinutes: 240,
		Stopper:          NewEntropyStopper(),
		Partition:        &pc,
		Seeded:           true,
		BatchPerIter:     1,
		Seed:             seed,
		MaxEvaluations:   200_000,
		Prune:            true,
	}
}

// TrivialStopConfig is the S2FA flow with the naive
// no-improvement-for-10-iterations criterion, used for the stopping
// ablation in §5.2.
func TrivialStopConfig(seed int64) Config {
	c := S2FAConfig(seed)
	c.Stopper = NewTrivialStopper()
	return c
}

// Run executes the DSE for kernel k over space sp with the given
// evaluator and configuration, on a virtual clock. eval must charge
// fresh synthesis minutes on every call (NewEvaluator does); Run
// memoizes it in the prune guard.
func Run(k *cir.Kernel, sp *space.Space, eval tuner.Evaluator, cfg Config) *Outcome {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.BatchPerIter <= 0 {
		cfg.BatchPerIter = 1
	}
	if cfg.Stopper == nil {
		cfg.Stopper = NeverStopper{}
	}
	if cfg.MaxEvaluations <= 0 {
		cfg.MaxEvaluations = 200_000
	}

	out := &Outcome{KernelName: k.Name, FirstFeasible: math.NaN(), FirstFeasibleMinutes: math.NaN()}
	points := space.NewTable(sp)
	var pool *evalPool
	var prefetch func(space.Point)
	if cfg.Engine == EngineParallel {
		pool = newEvalPool(cfg.poolSize(), k.Name, eval)
		defer pool.close(cfg.Trace)
		prefetch = func(pt space.Point) { pool.prefetch(points.ID(pt), pt, -1) }
	}
	eval = guardEvaluator(k, sp, points, estimate(eval, pool, cfg.Trace), cfg, out)
	parts := []Partition{{}}
	if cfg.Partition != nil {
		parts = buildPartitions(sp, k, eval, *cfg.Partition, cfg.Seed, prefetch)
	}
	out.Partitions = parts

	sched := newScheduler(cfg, sp, points, parts, eval, out, pool)
	sched.run()
	out.TotalMinutes = sched.totalMinutes()
	out.StopReason = sched.stopReason()
	if !out.Best.Feasible {
		out.Best = tuner.Result{Objective: math.Inf(1)}
	}
	return out
}

// worker is one simulated CPU core working through partitions.
type worker struct {
	id      int
	clock   float64
	driver  *tuner.Driver
	stopper Stopper
	part    int // index into partitions; -1 when idle/done
	seeds   []space.Point
	done    bool
	// span is the open partition trace span (tid = id+1); pevals counts
	// this partition's evaluations for the span's closing args.
	span   *obs.Span
	pevals int
	// hasPending, pendingSeed, and pendingProps hold the worker's next
	// iteration, taken off its seeds or driver by prepare: the seed to
	// inject (nil for none) or the proposals to commit (none left:
	// partition exhausted). The sequential engine prepares an iteration
	// when it steps the worker; the parallel engine prepares it as soon
	// as the previous one is absorbed, for the pool to evaluate ahead.
	hasPending   bool
	pendingSeed  space.Point
	pendingProps []tuner.Proposal
}

type scheduler struct {
	cfg Config
	// sp is the full space; a worker searches its partition's sub-box.
	sp *space.Space
	// points is the run's point table: every driver, the prune guard
	// and the parallel engine's slots identify points in it.
	points   *space.Table
	parts    []Partition
	eval     tuner.Evaluator
	out      *Outcome
	workers  []*worker
	nextPart int
	bestObj  float64
	evals    int
	// Termination-cause flags behind Outcome.StopReason.
	sawTimeout  bool
	sawStop     bool
	hitMaxEvals bool
	// pool, set under EngineParallel, evaluates prepared iterations
	// ahead of the scheduler loop.
	pool *evalPool
}

// newScheduler builds the scheduler and performs the initial FCFS
// partition hand-out.
func newScheduler(cfg Config, sp *space.Space, points *space.Table, parts []Partition, eval tuner.Evaluator, out *Outcome, pool *evalPool) *scheduler {
	s := &scheduler{cfg: cfg, sp: sp, points: points, parts: parts, eval: eval, out: out, bestObj: math.Inf(1), pool: pool}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{id: i, part: -1}
		s.workers = append(s.workers, w)
		s.assign(w)
	}
	return s
}

// assign hands the next queued partition to w (first-come-first-serve,
// paper §4.3.1) or marks it done.
func (s *scheduler) assign(w *worker) {
	if s.nextPart >= len(s.parts) {
		w.done = true
		w.part = -1
		return
	}
	idx := s.nextPart
	s.nextPart++
	p := s.parts[idx]
	sub := p.Space(s.sp)
	w.part = idx
	w.driver = tuner.NewDriver(sub, s.points, s.eval, s.cfg.Seed*7919+int64(idx)*104729+1)
	w.driver.Trace = s.cfg.Trace
	w.driver.TID = w.id + 1
	w.stopper = s.cfg.Stopper.Clone()
	w.seeds = nil
	if s.cfg.Seeded {
		w.seeds = []space.Point{sub.PerformanceSeed(), sub.AreaSeed()}
	} else {
		w.seeds = []space.Point{sub.RandomPoint(w.driver.Rng)}
	}
	w.done = false
	w.pevals = 0
	if s.cfg.Trace != nil {
		w.span = s.cfg.Trace.BeginT(w.id+1, "dse", "partition",
			obs.Int("part", idx),
			obs.Str("rule", p.String()),
			obs.Vmin(w.clock))
	}
	if s.pool != nil {
		s.prepare(w)
	}
}

// prepare takes w's next iteration off its seeds or driver, unless one
// is already pending, and under EngineParallel dispatches its points to
// the pool. The driver state it proposes from is final: everything
// before has been absorbed. A worker at the time limit prepares
// nothing, since step would end it before evaluating, and a proposal
// would consume driver RNG state the run never uses.
func (s *scheduler) prepare(w *worker) {
	if w.done || w.hasPending || w.clock >= s.cfg.TimeLimitMinutes {
		return
	}
	w.hasPending = true
	if len(w.seeds) > 0 {
		w.pendingSeed = w.seeds[0]
		w.seeds = w.seeds[1:]
		if s.pool != nil {
			s.pool.prefetch(s.points.ID(w.pendingSeed), w.pendingSeed, w.part)
		}
		return
	}
	w.pendingProps = w.driver.Propose(s.cfg.BatchPerIter)
	if s.pool != nil {
		for _, p := range w.pendingProps {
			s.pool.prefetch(p.ID, p.Point, w.part)
		}
	}
}

// endPartitionSpan closes the worker's open partition span with its
// outcome: why it ended, how many evaluations it spent, and the virtual
// clock at the end.
func (s *scheduler) endPartitionSpan(w *worker, cause string) {
	if w.span == nil {
		return
	}
	w.span.End(
		obs.Str("cause", cause),
		obs.Int("evals", w.pevals),
		obs.Vmin(w.clock))
	w.span = nil
}

// run advances the virtual clock: repeatedly pick the worker with the
// earliest clock and execute its next evaluation batch.
func (s *scheduler) run() {
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
		s.step(w)
	}
}

func (s *scheduler) earliest() *worker {
	var best *worker
	for _, w := range s.workers {
		if w.done {
			continue
		}
		if best == nil || w.clock < best.clock {
			best = w
		}
	}
	return best
}

// step runs w's next iteration: the pending seed or proposals (prepared
// now unless the pool prepared them ahead), each evaluated through the
// chain and committed to w's driver, then absorbed.
func (s *scheduler) step(w *worker) {
	if w.clock >= s.cfg.TimeLimitMinutes {
		s.sawTimeout = true
		s.endPartitionSpan(w, "timeout")
		w.done = true
		w.part = -1
		return
	}
	s.prepare(w)
	seed, props := w.pendingSeed, w.pendingProps
	w.hasPending, w.pendingSeed, w.pendingProps = false, nil, nil
	var results []tuner.Result
	var iterMinutes float64
	if seed != nil {
		r := w.driver.InjectSeed(seed)
		results = []tuner.Result{r}
		iterMinutes = r.Minutes
	} else {
		if len(props) == 0 {
			// Partition exhausted (tiny sub-space).
			s.finishPartition(w, "exhausted")
			return
		}
		// Batched candidates run concurrently on the worker's cores
		// (vanilla mode): the iteration costs the slowest evaluation.
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
	if s.pool != nil {
		// Same partition, next iteration (a partition hand-off already
		// prepared in assign).
		s.prepare(w)
	}
}

// absorb advances w's virtual clock by one iteration and folds its
// results into the shared search state: evaluation counts, trace events,
// first-feasible and incumbent tracking, stopper observation, and the
// partition hand-off when the stopper fires or the clock hits the
// budget. It is the single place scheduling accounting happens.
func (s *scheduler) absorb(w *worker, results []tuner.Result, iterMinutes float64) {
	w.clock += iterMinutes
	if w.clock > s.cfg.TimeLimitMinutes {
		// The tool chain is killed at the wall-clock limit; the last
		// result still counts but the clock pins to the limit.
		w.clock = s.cfg.TimeLimitMinutes
	}

	tr := s.cfg.Trace
	stop := false
	for _, r := range results {
		s.evals++
		s.out.Evaluations++
		w.pevals++
		if tr != nil {
			tr.EventT(w.id+1, "dse", "eval",
				obs.Vmin(w.clock),
				obs.Str("technique", r.Technique),
				obs.F64("objective", r.Objective),
				obs.Bool("feasible", r.Feasible),
				obs.F64("minutes", r.Minutes))
			tr.Count("dse.evals", 1)
		}
		if r.Feasible && math.IsNaN(s.out.FirstFeasible) {
			s.out.FirstFeasible = r.Objective
			s.out.FirstFeasibleMinutes = w.clock
			if tr != nil {
				tr.EventT(w.id+1, "dse", "first-feasible",
					obs.Vmin(w.clock), obs.F64("objective", r.Objective))
			}
		}
		newGlobalBest := r.Feasible && r.Objective < s.bestObj
		if newGlobalBest {
			s.bestObj = r.Objective
			s.out.Best = r
			s.out.Trajectory = append(s.out.Trajectory, TrajPoint{Minutes: w.clock, Objective: r.Objective})
			if tr != nil {
				tr.EventT(w.id+1, "dse", "incumbent",
					obs.Vmin(w.clock), obs.F64("objective", r.Objective))
				tr.Count("dse.incumbents", 1)
			}
		}
		localBest := w.driver.DB.Best()
		newLocalBest := localBest != nil && r.Feasible && r.Objective <= localBest.Objective
		fired := w.stopper.Observe(r, newLocalBest)
		if fired {
			stop = true
		}
		if tr != nil {
			// The entropy-window value H(D_i) the EntropyStopper just
			// computed — the curve the run report's Search sparkline plots.
			if es, ok := w.stopper.(*EntropyStopper); ok && es.hValid {
				tr.EventT(w.id+1, "dse", "entropy",
					obs.Vmin(w.clock),
					obs.F64("h", es.prevH),
					obs.Int("streak", es.streak),
					obs.Bool("fired", fired))
			}
		}
	}
	if stop {
		s.sawStop = true
		s.finishPartition(w, "converged")
	} else if w.clock >= s.cfg.TimeLimitMinutes {
		s.finishPartition(w, "timeout")
	}
}

func (s *scheduler) finishPartition(w *worker, cause string) {
	s.endPartitionSpan(w, cause)
	if w.clock >= s.cfg.TimeLimitMinutes {
		s.sawTimeout = true
		w.done = true
		w.part = -1
		return
	}
	s.assign(w)
}

// stopReason classifies the finished run. The budget cutting any worker
// short dominates (the search did not finish on its own terms); a run
// that completed because stoppers fired is converged; otherwise every
// partition simply ran out of points.
func (s *scheduler) stopReason() StopReason {
	switch {
	case s.hitMaxEvals || s.sawTimeout:
		return StopBudgetExhausted
	case s.sawStop:
		return StopEntropyConverged
	default:
		return StopSpaceExhausted
	}
}

func (s *scheduler) totalMinutes() float64 {
	var total float64
	for _, w := range s.workers {
		if w.clock > total {
			total = w.clock
		}
	}
	return total
}
