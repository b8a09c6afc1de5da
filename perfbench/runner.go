package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// workload is one seeded input set the benchmark runs. A run generates
// the inputs, sets up the program state the ops share (several times, to
// time set-up), then runs ops closed-loop, one at a time, until the run's
// seconds are spent, always finishing the round in progress so every run
// measures the same mix of ops.
type workload struct {
	name  string
	round int
	gen   func(seed int64) (instance, error)
}

// instance is a workload's generated inputs plus the references its
// checks compare against.
type instance interface {
	// digest is the hex SHA-256 of the generated inputs.
	digest() string
	// prepare computes the references the checks compare against. It is
	// the benchmark's own work and is not timed.
	prepare() error
	// setup builds the program state ops run against. tr is nil for
	// untraced passes.
	setup(tr *tracer) (session, error)
	// layers derives the per-layer metrics of a traced run.
	layers(r *layerRun) (map[string]metric, error)
}

// session runs ops against one set-up program state.
type session interface {
	op(i int) opResult
}

// opResult is what one op reports to the runner.
type opResult struct {
	d       time.Duration // the op's time inside the program
	covered time.Duration // time inside the benchmark's top-level spans
	alloc   uint64        // bytes allocated inside those spans
	label   string        // the op's class: app name, "hit", "miss", ...
	tasks   int           // tasks the op carried (blaze requests)
	fp      string        // outcome fingerprint the traced pass must reproduce
	err     error         // the op failed or returned a wrong result
}

// opRecord is what a pass keeps of every op; everything else is summed.
type opRecord struct {
	d     time.Duration
	label string
	fp    string
}

// recordChunk bounds the pass's bookkeeping: records live in fixed-size
// chunks, so a long pass of short ops never reallocates them and the
// benchmark's own memory stays out of the program's peak RSS.
const recordChunk = 4096

// pass is one measured sequence of ops.
type pass struct {
	chunks   [][]opRecord
	n        int
	covered  time.Duration
	alloc    uint64 // bytes allocated inside the ops' calls
	tasks    int
	failed   int
	failures []string // the first few failure details
	gcs      uint32
}

func (p *pass) rec(i int) *opRecord { return &p.chunks[i/recordChunk][i%recordChunk] }

func (p *pass) add(i int, r opResult) {
	for len(p.chunks) <= i/recordChunk {
		p.chunks = append(p.chunks, make([]opRecord, recordChunk))
	}
	*p.rec(i) = opRecord{d: r.d, label: r.label, fp: r.fp}
	p.covered += r.covered
	p.alloc += r.alloc
	p.tasks += r.tasks
	if r.err != nil {
		p.fail(r.err)
	}
}

func (p *pass) fail(err error) {
	p.failed++
	if len(p.failures) < maxFailures {
		p.failures = append(p.failures, err.Error())
	}
}

func (p *pass) sumD() time.Duration {
	var s time.Duration
	for i := 0; i < p.n; i++ {
		s += p.rec(i).d
	}
	return s
}

// opMS returns every op's time in milliseconds, optionally only for one
// label.
func (p *pass) opMS(label string) []float64 { return p.opTimes(label, 1e3) }

// opUS is opMS in microseconds.
func (p *pass) opUS(label string) []float64 { return p.opTimes(label, 1e6) }

func (p *pass) opTimes(label string, perSecond float64) []float64 {
	var out []float64
	for i := 0; i < p.n; i++ {
		if r := p.rec(i); label == "" || r.label == label {
			out = append(out, r.d.Seconds()*perSecond)
		}
	}
	return out
}

// layerRun is what a traced run hands to instance.layers: the untraced
// pass and the traced pass over the same ops, their sessions, the
// tracer, and the wall-clock budget for replays.
type layerRun struct {
	plain, traced  *pass
	plainS, traceS session
	tr             *tracer
	replayDeadline time.Time
}

// runOpts are one run's settings.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	// maxOps stops the measured pass after this many ops (0: whole rounds
	// until seconds elapse). Tests use it to keep runs tiny.
	maxOps int
}

// report is the outcome of one run.
type report struct {
	attempted int
	failed    int
	failures  []string
	digest    string
	ops       int
	metrics   map[string]metric
}

const (
	// Set-up runs at least minSetups times and until setupBudget is
	// spent (at most maxSetups times); setup_s is the median.
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
	maxFailures = 5
	// minOps is the fewest ops a timed pass runs, however slow the
	// machine, so that at least ten samples lie beyond op_ms_p90.
	minOps = 100
)

// runWorkload performs one run of w.
func runWorkload(w *workload, o runOpts) (*report, error) {
	inst, err := w.gen(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if err := inst.prepare(); err != nil {
		return nil, fmt.Errorf("computing references: %w", err)
	}
	return runInstance(w, inst, o)
}

// runInstance runs w on already generated and prepared inputs.
func runInstance(w *workload, inst instance, o runOpts) (*report, error) {
	rep := &report{digest: inst.digest(), metrics: map[string]metric{}}

	var setupS []float64
	var sess session
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := inst.setup(nil)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, d.Seconds())
		spent += d
		sess = s
		if o.trace {
			break
		}
	}

	if !o.trace {
		p := measure(sess, w.round, o.seconds, o.maxOps)
		rep.add(p)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		n := float64(p.n)
		ms := p.opMS("")
		rep.metrics["setup_s"] = metric{median(setupS), "s"}
		rep.metrics["ops_per_s"] = metric{n / p.sumD().Seconds(), "op/s"}
		rep.metrics["op_ms_p50"] = metric{quantile(ms, 0.5), "ms"}
		rep.metrics["op_ms_p90"] = metric{quantile(ms, 0.9), "ms"}
		rep.metrics["alloc_kb_per_op"] = metric{float64(p.alloc) / n / 1024, "KB"}
		rep.metrics["rss_peak_mb"] = metric{rss, "MB"}
		return rep, nil
	}

	// Traced run: an untraced pass over half the time, then the same ops
	// again on a fresh, traced set-up. The difference between the two is
	// the tracing overhead, and the traced pass must reproduce every
	// outcome of the untraced one.
	plain := measure(sess, w.round, o.seconds/2, o.maxOps)
	tr := newTracer()
	tsess, err := inst.setup(tr)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tr.reset()
	traced := measure(tsess, 1, 0, plain.n)
	for i := 0; i < traced.n; i++ {
		if a, b := plain.rec(i), traced.rec(i); a.fp != b.fp {
			traced.fail(fmt.Errorf("op %d: traced outcome differs from untraced:\n  untraced %s\n  traced   %s", i, a.fp, b.fp))
		}
	}
	rep.add(plain)
	rep.add(traced)
	rep.ops = plain.n

	lm, err := inst.layers(&layerRun{
		plain: plain, traced: traced, plainS: sess, traceS: tsess, tr: tr,
		replayDeadline: time.Now().Add(time.Duration(o.seconds / 4 * float64(time.Second))),
	})
	if err != nil {
		return nil, err
	}
	for k, v := range lm {
		rep.metrics[k] = v
	}
	d := traced.sumD()
	rep.metrics["unattributed_frac"] = metric{(d - traced.covered).Seconds() / d.Seconds(), "ratio"}
	rep.metrics["trace_overhead_pct"] = metric{(d.Seconds()/plain.sumD().Seconds() - 1) * 100, "%"}
	rep.metrics["go.gc_cycles_per_op"] = metric{float64(plain.gcs) / float64(plain.n), "count"}
	return rep, nil
}

func (r *report) add(p *pass) {
	r.attempted += p.n
	r.ops = p.n
	r.failed += p.failed
	for _, f := range p.failures {
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, f)
		}
	}
}

// measure runs ops one after another, in index order. Once seconds have
// elapsed and at least minOps ops have run, the pass stops at the end of
// the current round, so it always covers whole rounds. limit > 0 caps the
// pass at that many ops instead. A single client keeps the load within
// one core of a shared host, so op times measure the program rather than
// the scheduler.
func measure(s session, round int, seconds float64, limit int) *pass {
	stop := int(^uint(0) >> 1)
	if limit > 0 {
		stop = limit
	}
	p := &pass{}
	budget := time.Duration(seconds * float64(time.Second))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < stop; i++ {
		p.add(i, s.op(i))
		if limit == 0 && stop > i+1 && i+1 >= minOps && time.Since(start) >= budget {
			stop = (i + round) / round * round
		}
	}
	p.n = stop
	runtime.ReadMemStats(&ms1)
	p.gcs = ms1.NumGC - ms0.NumGC
	return p
}

// clock times the calls one op makes into the program, and in traced
// passes records each call as a top-level layer span. The op's time runs
// from the start of its first call to the end of its last, so program
// work between calls counts too (as unattributed when traced).
type clock struct {
	tr         *tracer
	start, end time.Time
	covered    time.Duration
	alloc      uint64
}

var (
	allocMu     sync.Mutex
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
)

// heapAllocs reads the process's cumulative heap allocation. The
// counter is flushed per span refill, so a single op's delta is coarse,
// but summed over many ops it converges on the ops' own allocation and
// excludes the benchmark's checks.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// call runs f as one timed call into layer and returns its duration.
func (c *clock) call(layer string, f func()) time.Duration {
	a0 := heapAllocs()
	t0 := time.Now()
	f()
	c.end = time.Now()
	c.alloc += heapAllocs() - a0
	if c.start.IsZero() {
		c.start = t0
	}
	d := c.end.Sub(t0)
	c.covered += d
	if c.tr != nil {
		c.tr.observe(layer, d)
	}
	return d
}

// result packs the clock's readings into an opResult.
func (c *clock) result(label string, err error) opResult {
	return opResult{d: c.end.Sub(c.start), covered: c.covered, alloc: c.alloc, label: label, err: err}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
