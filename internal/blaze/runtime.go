package blaze

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s2fa/internal/absint"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/jvmsim"
	"s2fa/internal/obs"
	"s2fa/internal/spark"
)

// Accelerator is a synthesized FPGA design registered with the manager:
// the kernel (for functional emulation), its layout, and the performance
// design parameters from HLS + DSE.
type Accelerator struct {
	ID     string
	Layout Layout
	Design *fpga.Design

	// encPool reuses batch encoders (grow-once serialize buffers, see
	// Layout.NewEncoder) across offloads. Pooled because transformations
	// on one registered accelerator may run concurrently.
	encPool sync.Pool
	// evPool likewise keeps warm evaluators of Layout.Kernel, each
	// compiled once and holding its local-array buffers, so an offload
	// reuses them instead of recompiling the kernel and reallocating its
	// frame. They are built on first use: an accelerator whose class the
	// purity gate refuses never runs the kernel and may have a nil
	// Layout.Kernel.
	evPool sync.Pool
}

func (acc *Accelerator) encoder() *Encoder {
	if e, ok := acc.encPool.Get().(*Encoder); ok {
		return e
	}
	return acc.Layout.NewEncoder()
}

func (acc *Accelerator) release(e *Encoder) { acc.encPool.Put(e) }

func (acc *Accelerator) evaluator() *cir.Evaluator {
	if ev, ok := acc.evPool.Get().(*cir.Evaluator); ok {
		return ev
	}
	ev := cir.NewEvaluator(acc.Layout.Kernel)
	ev.MaxSteps = 2_000_000_000
	return ev
}

// Manager is the Blaze node accelerator manager: a registry from
// accelerator ID (the `val id` of the kernel class, Code 1) to deployed
// designs.
type Manager struct {
	mu     sync.RWMutex
	device *fpga.Device
	accs   map[string]*Accelerator
	purity map[*bytecode.Class]string

	// reqSeq numbers accelerated transformations. The id rides every
	// span and instant the request produces ("req" arg), so a trace
	// groups into per-request span trees — the attribution the
	// accelerator-as-a-service front door will key on.
	reqSeq atomic.Int64

	// Trace, when set, receives runtime telemetry: one "blaze" span per
	// accelerated transformation (offload vs fallback with the cause) and
	// serialization traffic events. Tracing never changes which path runs.
	Trace *obs.Trace
}

// nextReq issues the next request id (1-based; sequential workloads get
// deterministic ids).
func (m *Manager) nextReq() int64 { return m.reqSeq.Add(1) }

// NewManager creates a manager for one FPGA device.
func NewManager(dev *fpga.Device) *Manager {
	return &Manager{
		device: dev,
		accs:   map[string]*Accelerator{},
		purity: map[*bytecode.Class]string{},
	}
}

// purityGate returns "" when the kernel class is provably side-effect
// free, or a sourced diagnostic explaining why offloading is unsafe. The
// offload path materializes results only from the kernel's output
// buffers, so a method that also mutates caller-visible memory (an
// argument array, a class static) would silently diverge from the JVM
// semantics on the accelerator — such kernels must stay on the JVM. The
// verdict comes from the abstract interpreter's per-method side-effect
// summary and is cached per class. The analysis runs outside m.mu, so a
// class's first offload does not block Lookup for every accelerator;
// verdicts are deterministic, so when two first offloads race, both
// compute the same verdict and the first one stored wins.
func (m *Manager) purityGate(cls *bytecode.Class) string {
	m.mu.RLock()
	d, ok := m.purity[cls]
	m.mu.RUnlock()
	if ok {
		return d
	}
	if facts, err := absint.AnalyzeClass(cls); err != nil {
		d = "purity analysis failed: " + err.Error()
	} else if !facts.Pure() {
		d = fmt.Sprintf("kernel is impure, offload would drop the side effect at %s",
			facts.Impurities()[0])
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.purity[cls]; ok {
		return prev
	}
	m.purity[cls] = d
	return d
}

// Device returns the managed FPGA.
func (m *Manager) Device() *fpga.Device { return m.device }

// Register deploys an accelerator (the paper's bit-stream broadcast step:
// after DSE and bit-stream generation, designs are distributed to worker
// nodes and registered).
func (m *Manager) Register(acc *Accelerator) error {
	if acc.ID == "" {
		return fmt.Errorf("blaze: accelerator has no ID")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.accs[acc.ID]; dup {
		return fmt.Errorf("blaze: accelerator %q already registered", acc.ID)
	}
	m.accs[acc.ID] = acc
	return nil
}

// Lookup returns the accelerator registered under id, or nil.
func (m *Manager) Lookup(id string) *Accelerator {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.accs[id]
}

// Stats reports how a wrapped transformation executed.
type Stats struct {
	UsedFPGA bool
	// Fallback explains why the JVM path ran instead.
	Fallback string
	// SimTime is the modeled execution time of the chosen path:
	// accelerator invocation (PCIe + kernel) or the single-threaded JVM
	// executor.
	SimTime time.Duration
	Tasks   int
}

// AccRDD wraps an RDD of JVM values for accelerated transformations
// (blaze.wrap in Code 1).
type AccRDD struct {
	base *spark.RDD[jvmsim.Val]
	mgr  *Manager
}

// Wrap marks an RDD for accelerator offloading.
func Wrap(r *spark.RDD[jvmsim.Val], mgr *Manager) *AccRDD {
	return &AccRDD{base: r, mgr: mgr}
}

// MapAcc applies the kernel class as an RDD map transformation. If an
// accelerator with the class's ID is registered, tasks are serialized,
// offloaded, and deserialized; otherwise (or on accelerator failure) the
// computation transparently falls back to the JVM, exactly as the Blaze
// runtime behaves.
func (a *AccRDD) MapAcc(vm *jvmsim.VM) ([]jvmsim.Val, Stats, error) {
	tasks := a.base.Collect()
	req := a.mgr.nextReq()
	span := a.mgr.Trace.Begin("blaze", "map",
		obs.I64("req", req), obs.Str("acc", vm.Class.ID), obs.Int("tasks", len(tasks)))
	out, stats, err := a.mapAcc(vm, tasks, req)
	a.closeSpan(span, stats, err)
	return out, stats, err
}

func (a *AccRDD) mapAcc(vm *jvmsim.VM, tasks []jvmsim.Val, req int64) ([]jvmsim.Val, Stats, error) {
	acc := a.mgr.Lookup(vm.Class.ID)
	if acc == nil {
		return a.fallbackMap(vm, tasks, "no accelerator registered for "+vm.Class.ID, req)
	}
	if why := a.mgr.purityGate(vm.Class); why != "" {
		return a.fallbackMap(vm, tasks, why, req)
	}
	results, stats, err := a.offload(acc, tasks, req)
	if err != nil {
		return a.fallbackMap(vm, tasks, "accelerator error: "+err.Error(), req)
	}
	return results, stats, nil
}

// ReduceAcc applies a map+reduce kernel class, returning the single
// accumulated value.
func (a *AccRDD) ReduceAcc(vm *jvmsim.VM) (jvmsim.Val, Stats, error) {
	tasks := a.base.Collect()
	req := a.mgr.nextReq()
	span := a.mgr.Trace.Begin("blaze", "reduce",
		obs.I64("req", req), obs.Str("acc", vm.Class.ID), obs.Int("tasks", len(tasks)))
	v, stats, err := a.reduceAcc(vm, tasks, req)
	a.closeSpan(span, stats, err)
	return v, stats, err
}

func (a *AccRDD) reduceAcc(vm *jvmsim.VM, tasks []jvmsim.Val, req int64) (jvmsim.Val, Stats, error) {
	acc := a.mgr.Lookup(vm.Class.ID)
	if acc == nil {
		return a.fallbackReduce(vm, tasks, "no accelerator registered for "+vm.Class.ID, req)
	}
	if why := a.mgr.purityGate(vm.Class); why != "" {
		return a.fallbackReduce(vm, tasks, why, req)
	}
	enc := acc.encoder()
	defer acc.release(enc)
	bufs, stats, err := a.execKernel(acc, enc, tasks, req)
	if err != nil {
		return a.fallbackReduce(vm, tasks, "accelerator error: "+err.Error(), req)
	}
	v, err := acc.Layout.DeserializeReduced(bufs)
	if err != nil {
		return a.fallbackReduce(vm, tasks, "deserialize error: "+err.Error(), req)
	}
	return v, stats, nil
}

// closeSpan ends a transformation span with how it actually executed:
// the chosen path (offload vs JVM fallback with its cause) and the
// modeled execution time.
func (a *AccRDD) closeSpan(span *obs.Span, st Stats, err error) {
	if span == nil {
		return
	}
	kvs := []obs.KV{
		obs.Bool("offloaded", st.UsedFPGA),
		obs.I64("sim_ns", st.SimTime.Nanoseconds()),
	}
	if st.Fallback != "" {
		kvs = append(kvs, obs.Str("fallback", st.Fallback))
	}
	if err != nil {
		kvs = append(kvs, obs.Str("error", err.Error()))
	}
	span.End(kvs...)
}

func (a *AccRDD) offload(acc *Accelerator, tasks []jvmsim.Val, req int64) ([]jvmsim.Val, Stats, error) {
	enc := acc.encoder()
	defer acc.release(enc)
	bufs, stats, err := a.execKernel(acc, enc, tasks, req)
	if err != nil {
		return nil, stats, err
	}
	results, err := acc.Layout.Deserialize(bufs, len(tasks))
	if err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// execKernel runs serialization (through the caller's pooled encoder,
// whose buffers back the returned map until the encoder is released),
// functional kernel emulation, and the platform timing model.
func (a *AccRDD) execKernel(acc *Accelerator, enc *Encoder, tasks []jvmsim.Val, req int64) (map[string][]cir.Value, Stats, error) {
	n := len(tasks)
	bufs, err := enc.Encode(tasks)
	if err != nil {
		return nil, Stats{}, err
	}
	for name, out := range acc.Layout.AllocOutputs(n) {
		bufs[name] = out
	}
	ev := acc.evaluator()
	err = ev.Execute(n, bufs)
	acc.evPool.Put(ev)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("kernel execution: %w", err)
	}
	st := Stats{
		UsedFPGA: true,
		Tasks:    n,
		SimTime:  a.mgr.device.Execute(acc.Design, n),
	}
	if tr := a.mgr.Trace; tr != nil {
		bytes := acc.Layout.BytesPerTask() * n
		tr.Event("blaze", "offload",
			obs.I64("req", req),
			obs.Str("acc", acc.ID),
			obs.Int("tasks", n),
			obs.Int("bytes", bytes),
			obs.I64("sim_ns", st.SimTime.Nanoseconds()))
		tr.Count("blaze.offloads", 1)
		tr.Count("blaze.bytes_serialized", int64(bytes))
	}
	return bufs, st, nil
}

func (a *AccRDD) fallbackMap(vm *jvmsim.VM, tasks []jvmsim.Val, why string, req int64) ([]jvmsim.Val, Stats, error) {
	// Opportunistically execute through the closure-compiled kernel: the
	// JIT preserves outputs, Counts, and errors bit-for-bit, so the
	// fallback's results and modeled SimTime are unchanged — only the
	// host-side wall clock spent simulating the JVM shrinks.
	jit := vm.TryJIT()
	if tr := a.mgr.Trace; tr != nil {
		tr.Event("blaze", "fallback",
			obs.I64("req", req),
			obs.Str("acc", vm.Class.ID), obs.Str("cause", why), obs.Bool("jit", jit))
		tr.Count("blaze.fallbacks", 1)
	}
	out, err := vm.CallBatch(tasks)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("blaze: JVM fallback failed: %w", err)
	}
	cm := jvmsim.DefaultCostModel()
	st := Stats{Fallback: why, Tasks: len(tasks), SimTime: cm.Duration(vm.Counts)}
	return out, st, nil
}

func (a *AccRDD) fallbackReduce(vm *jvmsim.VM, tasks []jvmsim.Val, why string, req int64) (jvmsim.Val, Stats, error) {
	if len(tasks) == 0 {
		return jvmsim.Val{}, Stats{}, fmt.Errorf("blaze: reduce over empty RDD")
	}
	mapped, stats, err := a.fallbackMap(vm, tasks, why, req)
	if err != nil {
		return jvmsim.Val{}, Stats{}, err
	}
	acc := mapped[0]
	for _, v := range mapped[1:] {
		acc, err = vm.Reduce(acc, v)
		if err != nil {
			return jvmsim.Val{}, Stats{}, fmt.Errorf("blaze: JVM reduce failed: %w", err)
		}
	}
	cm := jvmsim.DefaultCostModel()
	stats.SimTime = cm.Duration(vm.Counts)
	return acc, stats, nil
}
