// Package core is the S2FA framework facade: the end-to-end automation
// pipeline of the paper's Fig. 1. Given the Scala-subset source of a
// Blaze kernel class, it
//
//  1. compiles it to JVM-style bytecode (the scalac stage),
//  2. runs the bytecode-to-C compiler to obtain a functionally
//     equivalent HLS-C kernel with flattened composite types and the
//     RDD-pattern task-loop template,
//  3. identifies the design space (Table 1),
//  4. runs the parallel learning-based DSE to pick a microarchitecture
//     configuration,
//  5. produces a deployable Blaze accelerator (design + generated data
//     processing methods) that Spark applications invoke by ID.
package core

import (
	"fmt"

	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/bytecode"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/compile"
	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/kdsl"
	"s2fa/internal/merlin"
	"s2fa/internal/obs"
	"s2fa/internal/space"
)

// Framework holds the target platform and exploration defaults.
type Framework struct {
	Device *fpga.Device
	// Seed drives all DSE randomness (reproducible builds).
	Seed int64
	// Tasks is the batch size designs are optimized for.
	Tasks int
	// DSE selects the exploration mode; defaults to the full S2FA flow.
	DSE *dse.Config
	// HLS options (StageSplit is reserved for expert manual designs).
	HLS hls.Options
	// Trace, when set, receives spans for every pipeline stage (kdsl,
	// b2c, space identification, DSE) plus the search telemetry the DSE
	// emits. A nil Trace costs nothing; a live one never perturbs the
	// search — traced and untraced runs are byte-identical.
	Trace *obs.Trace
	// Scratch is ignored.
	//
	// Deprecated: every compile stage pools its reusable buffers
	// internally, for every caller; there is nothing to set.
	Scratch *compile.Scratch
	// Cache, when set, is the content-addressed compile cache: Compile
	// serves repeated kernels from it (a hit skips the frontend and b2c
	// entirely), and Deploy pre-seeds the Blaze purity gate from its
	// cached facts. Cached and fresh runs are byte-identical.
	Cache *ccache.Cache
}

// New returns a framework targeting the EC2 F1's VU9P with the paper's
// defaults.
func New() *Framework {
	return &Framework{Device: fpga.VU9P(), Seed: 1, Tasks: 4096}
}

// Build is the result of one end-to-end S2FA run.
type Build struct {
	Class  *bytecode.Class
	Kernel *cir.Kernel
	Space  *space.Space
	// Outcome is the DSE result (nil when exploration was skipped).
	Outcome *dse.Outcome
	// Best is the chosen design's HLS report.
	Best hls.Report
	// BestKernel is the kernel annotated with the chosen directives.
	BestKernel *cir.Kernel
	// Accelerator is ready for blaze.Manager.Register.
	Accelerator *blaze.Accelerator
}

// HLSSource renders the pristine generated HLS C (pre-DSE).
func (b *Build) HLSSource() string { return cir.Print(b.Kernel) }

// BestHLSSource renders the chosen design's annotated HLS C.
func (b *Build) BestHLSSource() string {
	if b.BestKernel == nil {
		return b.HLSSource()
	}
	return cir.Print(b.BestKernel)
}

// Compile runs only the front half: source -> bytecode -> HLS-C kernel.
// With Cache set it goes through the compile cache (repeat sources skip
// the whole pipeline); otherwise it compiles fresh.
func (f *Framework) Compile(src string) (*bytecode.Class, *cir.Kernel, error) {
	if f.Cache != nil {
		cls, e, err := f.Cache.CompileSource(src, f.Trace)
		if err != nil {
			return nil, nil, err
		}
		return cls, e.Kernel, nil
	}
	span := f.Trace.Begin("kdsl", "compile", obs.Int("src_bytes", len(src)))
	cls, err := kdsl.CompileSource(src)
	if err != nil {
		span.End(obs.Bool("ok", false))
		return nil, nil, err
	}
	span.End(obs.Bool("ok", true), obs.Str("class", cls.Name))
	k, err := b2c.CompileTraced(cls, f.Trace)
	if err != nil {
		return nil, nil, err
	}
	return cls, k, nil
}

// BuildFromSource runs the full pipeline on kernel source text.
func (f *Framework) BuildFromSource(src string) (*Build, error) {
	cls, k, err := f.Compile(src)
	if err != nil {
		return nil, err
	}
	return f.BuildFromClass(cls, k)
}

// BuildFromClass runs design-space identification, DSE, and accelerator
// assembly for an already compiled kernel.
func (f *Framework) BuildFromClass(cls *bytecode.Class, k *cir.Kernel) (*Build, error) {
	sspan := f.Trace.Begin("space", "identify", obs.Str("kernel", k.Name))
	sp := space.Identify(k)
	sspan.End(obs.Int("params", len(sp.Params)), obs.F64("points", sp.Cardinality()))
	b := &Build{Class: cls, Kernel: k, Space: sp}

	cfg := dse.S2FAConfig(f.Seed)
	if f.DSE != nil {
		cfg = *f.DSE
	}
	if cfg.Device == nil {
		cfg.Device = f.Device
	}
	if cfg.Trace == nil {
		cfg.Trace = f.Trace
	}
	tasks := f.Tasks
	if tasks <= 0 {
		tasks = 4096
	}
	eval := dse.NewEvaluator(k, b.Space, f.Device, int64(tasks), f.HLS)
	dspan := f.Trace.Begin("dse", "run", obs.Str("kernel", k.Name))
	b.Outcome = dse.Run(k, b.Space, eval, cfg)
	dspan.End(
		obs.Int("evaluations", b.Outcome.Evaluations),
		obs.F64("virtual_min", b.Outcome.TotalMinutes),
		obs.Str("stop", string(b.Outcome.StopReason)))
	if !b.Outcome.Best.Feasible {
		return nil, fmt.Errorf("core: DSE found no feasible design for %s", k.Name)
	}
	rep, ok := dse.Report(b.Outcome.Best)
	if !ok {
		return nil, fmt.Errorf("core: best result carries no HLS report")
	}
	b.Best = rep

	ann, err := merlin.Annotate(k, b.Space.Directives(b.Outcome.Best.Point))
	if err != nil {
		return nil, fmt.Errorf("core: annotating best design: %w", err)
	}
	b.BestKernel = ann

	b.Accelerator = &blaze.Accelerator{
		ID:     cls.ID,
		Layout: blaze.Layout{Class: cls, Kernel: ann},
		Design: rep.Design(k.Name),
	}
	return b, nil
}

// Deploy registers the build's accelerator with a Blaze manager (the
// bit-stream broadcast step of Fig. 1).
func (f *Framework) Deploy(b *Build, mgr *blaze.Manager) error {
	if b.Accelerator == nil {
		return fmt.Errorf("core: build has no accelerator")
	}
	if f.Cache != nil {
		// Seed the manager's purity gate from the cached facts so the
		// first offload skips re-running the abstract interpreter.
		if e := f.Cache.EntryFor(b.Kernel); e != nil && e.Facts != nil {
			mgr.SeedPurity(b.Class, e.Facts)
		}
	}
	return mgr.Register(b.Accelerator)
}
