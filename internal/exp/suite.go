package exp

import (
	"fmt"
	"sync"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/merlin"
	"s2fa/internal/obs"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// Suite runs and caches the per-workload artifacts every experiment
// shares: the compiled kernel, its design space, the DSE outcomes for
// each mode, the JVM baseline, and the manual-design estimate. All
// randomness is derived from one seed, so every table and figure is
// exactly reproducible. The JVM baselines always run on the typed JIT,
// which preserves Counts bit-for-bit, so JVMSeconds and every figure
// derived from it equal the interpreter's
// (internal/exp/testdata/jvm_baseline.golden pins both); the baseline
// of a kernel absint proves pure runs on GOMAXPROCS goroutines even in
// a sequential suite (see JVMSecondsForEngine), and runs only for the
// experiments that read JVMSeconds (see Result).
type Suite struct {
	Seed   int64
	Device *fpga.Device
	// Engine selects the DSE execution engine for every run the suite
	// performs; Parallelism sizes the evaluation pool for
	// dse.EngineParallel. Results are byte-identical across engines —
	// these only trade wall-clock time.
	Engine      dse.Engine
	Parallelism int
	// Trace, when non-nil, receives per-app baseline spans and JIT
	// compile counters.
	Trace *obs.Trace

	// Locking is two-level so independent apps can be computed
	// concurrently (Warm): mu guards only the slot directory, each
	// slot's mutex serializes work on one app.
	mu    sync.Mutex
	cache map[string]*appSlot
}

type appSlot struct {
	mu sync.Mutex
	r  *AppResult
	// jvm records whether r.JVMSeconds is filled: the baseline runs only
	// for the readers of JVMSeconds (see Result).
	jvm bool
}

// AppResult bundles everything the experiments need for one workload.
type AppResult struct {
	App    *apps.App
	Kernel *cir.Kernel
	Space  *space.Space

	JVMSeconds float64

	S2FA    *dse.Outcome
	Vanilla *dse.Outcome
	Trivial *dse.Outcome

	// BestReport is the HLS report of the S2FA DSE's best design.
	BestReport hls.Report
	// ManualReport is the HLS report of the expert manual design.
	ManualReport hls.Report

	// eval is the app's design-point evaluator. It is pure, so every
	// DSE run on the app shares it and its one analysis of the kernel.
	eval tuner.Evaluator
}

// S2FASpeedup is the Fig. 4 speedup of the S2FA-generated design over the
// single-threaded JVM.
func (r *AppResult) S2FASpeedup() float64 {
	if !r.S2FA.Best.Feasible {
		return 0
	}
	return r.JVMSeconds / r.S2FA.Best.Objective
}

// ManualSpeedup is the Fig. 4 speedup of the manual design.
func (r *AppResult) ManualSpeedup() float64 {
	if !r.ManualReport.Feasible {
		return 0
	}
	return r.JVMSeconds / r.ManualReport.Seconds()
}

// NewSuite builds a suite on the VU9P device.
func NewSuite(seed int64) *Suite {
	return &Suite{Seed: seed, Device: fpga.VU9P(), cache: map[string]*appSlot{}}
}

// Modes selects which DSE runs Result performs.
type Modes struct {
	Vanilla bool
	Trivial bool
}

// Result computes (or returns cached) artifacts for the named app,
// JVMSeconds included. Calls for different apps may run concurrently
// (see Warm); work on one app is serialized.
func (s *Suite) Result(name string, modes Modes) (*AppResult, error) {
	return s.result(name, modes, true)
}

// result is Result, filling JVMSeconds only when baseline is set. The
// experiments that never read it (Fig. 3 and the tables) skip the JVM
// baseline, its largest cost; a later Result fills it once, under the
// slot lock.
func (s *Suite) result(name string, modes Modes, baseline bool) (*AppResult, error) {
	s.mu.Lock()
	slot := s.cache[name]
	if slot == nil {
		slot = &appSlot{}
		s.cache[name] = slot
	}
	s.mu.Unlock()
	slot.mu.Lock()
	defer slot.mu.Unlock()
	r := slot.r
	if r == nil {
		a := apps.Get(name)
		if a == nil {
			return nil, fmt.Errorf("exp: unknown app %q", name)
		}
		k, err := a.Kernel()
		if err != nil {
			return nil, err
		}
		r = &AppResult{App: a, Kernel: k, Space: space.Identify(k)}
		r.eval = dse.NewEvaluator(k, r.Space, s.Device, int64(a.Tasks), hls.Options{})
		slot.r = r
	}
	if baseline && !slot.jvm {
		jvm, err := JVMSecondsForEngine(r.App, r.App.Tasks, true, s.Trace)
		if err != nil {
			return nil, err
		}
		r.JVMSeconds, slot.jvm = jvm, true
	}

	if r.S2FA == nil {
		cfg := dse.S2FAConfig(s.Seed)
		cfg.Device = s.Device
		r.S2FA = dse.Run(r.Kernel, r.Space, r.eval, s.configure(cfg))
		if rep, ok := dse.Report(r.S2FA.Best); ok {
			r.BestReport = rep
		}
		loops, bw := r.App.Manual.Directives(r.Kernel)
		ann, err := merlin.Annotate(r.Kernel, merlin.Directives{Loops: loops, BitWidths: bw})
		if err != nil {
			return nil, fmt.Errorf("exp: manual design for %s: %w", name, err)
		}
		r.ManualReport = hls.Estimate(ann, s.Device, int64(r.App.Tasks), hls.Options{StageSplit: r.App.Manual.StageSplit})
	}
	if modes.Vanilla && r.Vanilla == nil {
		// Stock OpenTuner sees no gradient in the infeasible region.
		eval := dse.FlatInfeasible(r.eval)
		r.Vanilla = dse.Run(r.Kernel, r.Space, eval, s.configure(dse.VanillaConfig(s.Seed)))
	}
	if modes.Trivial && r.Trivial == nil {
		r.Trivial = dse.Run(r.Kernel, r.Space, r.eval, s.configure(dse.TrivialStopConfig(s.Seed)))
	}
	return r, nil
}

// Warm precomputes the named apps' artifacts, all but the JVM baseline,
// concurrently — one goroutine per app — when the suite runs the
// parallel engine; with the sequential engine it is a no-op, so apps
// are computed one at a time (only a pure kernel's JVM baseline is
// sharded, see Suite). Every
// app's computation is fully independent (own kernel, space, caches,
// RNG streams), so the results are byte-identical to computing them one
// by one; later Result calls are cache hits.
func (s *Suite) Warm(appNames []string, modes Modes) error {
	if s.Engine != dse.EngineParallel {
		return nil
	}
	if len(appNames) == 0 {
		appNames = apps.Names()
	}
	errs := make([]error, len(appNames))
	var wg sync.WaitGroup
	for i, name := range appNames {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			_, errs[i] = s.result(name, modes, false)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// configure stamps the suite's engine selection onto a DSE config.
func (s *Suite) configure(cfg dse.Config) dse.Config {
	cfg.Engine = s.Engine
	cfg.Parallelism = s.Parallelism
	return cfg
}
