package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"s2fa/internal/apps"
	"s2fa/internal/blaze"
	"s2fa/internal/bytecode"
	"s2fa/internal/ccache"
	"s2fa/internal/cir"
	"s2fa/internal/compile"
	"s2fa/internal/core"
	"s2fa/internal/fpga"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/spark"
)

// blaze-offload: op i is one Spark request through the Blaze runtime,
// blaze.Wrap(rdd, mgr).MapAcc(vm) (ReduceAcc for the apps that reduce),
// from one client. Set-up builds the 12 apps
// with core.Framework and deploys them, and registers 4 generated
// kernels that write into their inputs, which the purity gate must send
// to the JVM. A round of 40 requests sends
// every app once at each batch size plus the 4 impure kernels (10% of
// requests), in a seeded order.
var blazeWorkload = &workload{name: "blaze-offload", round: 40, gen: genBlaze}

var (
	blazeSizes = []int{8, 32, 128}
	// S-W's emulated offload costs some 60x more per task than any other
	// app's, so its batches are 16x smaller: one request must not hold a
	// client for seconds.
	blazeSWSizes = []int{1, 2, 8}
)

const (
	blazeVariants = 2
	blazeImpure   = 4
)

// blazeBatch is one request payload and its expected result.
type blazeBatch struct {
	name  string // app or generated kernel
	neg   *kdslgen.Negative
	app   *apps.App
	tasks []jvmsim.Val
	raw   [][]kdslgen.FieldVal // impure kernels: generator inputs
	want  []jvmsim.Val
}

type blazeInst struct {
	seed int64
	apps []*apps.App
	negs []*kdslgen.Negative
	// pure[a][s][v] is variant v of app a's batch at size index s;
	// impure[n][s][v] likewise for the impure kernels.
	pure, impure [][][]*blazeBatch
}

func genBlaze(seed int64) (instance, error) {
	in := &blazeInst{seed: seed, apps: apps.All()}
	for _, n := range kdslgen.GenerateNegatives(seed, 11*blazeImpure) {
		if n.Stage == kdslgen.RejectPurity {
			in.negs = append(in.negs, n)
		}
	}
	if len(in.negs) != blazeImpure {
		return nil, fmt.Errorf("expected %d purity negatives, generated %d", blazeImpure, len(in.negs))
	}
	for ai, a := range in.apps {
		sizes := blazeSizes
		if a.Name == "S-W" {
			sizes = blazeSWSizes
		}
		var bySize [][]*blazeBatch
		for si, n := range sizes {
			var vs []*blazeBatch
			for v := 0; v < blazeVariants; v++ {
				rng := rand.New(rand.NewSource(seed*3_000_017 + int64(ai*100+si*10+v)))
				vs = append(vs, &blazeBatch{name: a.Name, app: a, tasks: a.Gen(rng, n)})
			}
			bySize = append(bySize, vs)
		}
		in.pure = append(in.pure, bySize)
	}
	for ni, neg := range in.negs {
		var bySize [][]*blazeBatch
		for si, n := range blazeSizes {
			var vs []*blazeBatch
			for v := 0; v < blazeVariants; v++ {
				rng := rand.New(rand.NewSource(seed*4_000_037 + int64(ni*100+si*10+v)))
				b := &blazeBatch{name: neg.Name, neg: neg}
				for t := 0; t < n; t++ {
					raw := neg.Kernel.NewTask(rng)
					b.raw = append(b.raw, raw)
					b.tasks = append(b.tasks, fromFields(raw))
				}
				vs = append(vs, b)
			}
			bySize = append(bySize, vs)
		}
		in.impure = append(in.impure, bySize)
	}
	return in, nil
}

// round returns the batches of round r in request order.
func (in *blazeInst) round(r int) []*blazeBatch {
	rng := rand.New(rand.NewSource(in.seed*6_000_011 + int64(r)))
	var reqs []*blazeBatch
	for _, bySize := range in.pure {
		for _, vs := range bySize {
			reqs = append(reqs, vs[rng.Intn(len(vs))])
		}
	}
	for _, bySize := range in.impure {
		vs := bySize[rng.Intn(len(bySize))]
		reqs = append(reqs, vs[rng.Intn(len(vs))])
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func (in *blazeInst) digest() string {
	d := newDigester(blazeWorkload.name)
	for _, a := range in.apps {
		d.str(a.Source)
	}
	for _, n := range in.negs {
		d.str(n.Source)
	}
	for _, pool := range [][][][]*blazeBatch{in.pure, in.impure} {
		for _, bySize := range pool {
			for _, vs := range bySize {
				for _, b := range vs {
					d.str(b.name)
					d.int(int64(len(b.tasks)))
					for _, t := range b.tasks {
						d.val(t)
					}
				}
			}
		}
	}
	for r := 0; r < 16; r++ {
		for _, b := range in.round(r) {
			d.str(b.name)
			d.int(int64(len(b.tasks)))
		}
	}
	return d.sum()
}

// prepare computes every batch's expected output: the jvmsim interpreter
// for the apps (folded with the app's reduce method where it has one),
// the generator's reference semantics for the impure kernels (which the
// fallback must match).
func (in *blazeInst) prepare() error {
	for _, bySize := range in.pure {
		for _, vs := range bySize {
			for _, b := range vs {
				cls, err := b.app.Class()
				if err != nil {
					return err
				}
				vm := jvmsim.New(cls)
				out, err := vm.CallBatch(copyVals(b.tasks))
				if err != nil {
					return fmt.Errorf("%s: %w", b.name, err)
				}
				if cls.Reduce != nil {
					acc := copyVal(out[0])
					for _, o := range out[1:] {
						if acc, err = vm.Reduce(acc, o); err != nil {
							return fmt.Errorf("%s: %w", b.name, err)
						}
					}
					out = []jvmsim.Val{acc}
				}
				b.want = out
			}
		}
	}
	for _, bySize := range in.impure {
		for _, vs := range bySize {
			for _, b := range vs {
				b.want = nil
				for _, raw := range b.raw {
					ref, err := b.neg.Kernel.Eval(copyFields(raw))
					if err != nil {
						return fmt.Errorf("%s: %w", b.name, err)
					}
					b.want = append(b.want, fromField(ref))
				}
			}
		}
	}
	return nil
}

// setup builds and deploys the apps and registers the impure kernels.
func (in *blazeInst) setup(tr *tracer) (session, error) {
	f := core.New()
	f.Seed = in.seed
	f.Cache = ccache.New()
	f.Scratch = compile.NewScratch()
	s := &blazeSession{in: in, tr: tr, ctx: spark.NewContext(),
		mgr: blaze.NewManager(f.Device), classes: map[string]*bytecode.Class{}, rounds: map[int][]*blazeBatch{}}
	for _, a := range in.apps {
		f.Tasks = a.Tasks
		b, err := f.BuildFromSource(a.Source)
		if err != nil {
			return nil, err
		}
		if err := f.Deploy(b, s.mgr); err != nil {
			return nil, err
		}
		s.classes[a.Name] = b.Class
	}
	for _, n := range in.negs {
		cls, err := kdsl.CompileSource(n.Source)
		if err != nil {
			return nil, err
		}
		acc := &blaze.Accelerator{ID: cls.ID, Layout: blaze.Layout{Class: cls},
			Design: &fpga.Design{CyclesPerTask: 1, FreqMHz: 100, BytesPerTask: 1}}
		if err := s.mgr.Register(acc); err != nil {
			return nil, err
		}
		s.classes[n.Name] = cls
	}
	if tr != nil {
		s.mgr.Trace = tr.obs
	}
	return s, nil
}

type blazeSession struct {
	in      *blazeInst
	tr      *tracer
	ctx     *spark.Context
	mgr     *blaze.Manager
	classes map[string]*bytecode.Class

	rounds map[int][]*blazeBatch
	// offloaded counts tasks that ran on the accelerator; fallbacks
	// counts requests that fell back to the JVM.
	offloaded, fallbacks int
}

// batch returns op i's batch.
func (s *blazeSession) batch(i int) *blazeBatch {
	r := i / blazeWorkload.round
	reqs, ok := s.rounds[r]
	if !ok {
		reqs = s.in.round(r)
		s.rounds[r] = reqs
	}
	return reqs[i%len(reqs)]
}

func (s *blazeSession) op(i int) opResult {
	b := s.batch(i)
	tasks := b.tasks
	if b.neg != nil {
		tasks = copyVals(tasks) // the impure kernel writes into its inputs
	}
	rdd := spark.Parallelize(s.ctx, tasks, 2)
	cls := s.classes[b.name]
	vm := jvmsim.New(cls)
	c := &clock{tr: s.tr}
	var out []jvmsim.Val
	var st blaze.Stats
	var err error
	if cls.Reduce != nil {
		var v jvmsim.Val
		c.call("blaze.request", func() { v, st, err = blaze.Wrap(rdd, s.mgr).ReduceAcc(vm) })
		out = []jvmsim.Val{v}
	} else {
		c.call("blaze.request", func() { out, st, err = blaze.Wrap(rdd, s.mgr).MapAcc(vm) })
	}
	label := b.name
	if b.neg != nil {
		label = "impure"
	}
	switch {
	case err != nil:
	case b.neg == nil && !st.UsedFPGA:
		err = fmt.Errorf("%s: pure kernel fell back to the JVM: %s", b.name, st.Fallback)
	case b.neg != nil && (st.UsedFPGA || !strings.Contains(st.Fallback, "impure")):
		err = fmt.Errorf("%s: impure kernel was not refused as impure (offloaded=%v, fallback %q)", b.name, st.UsedFPGA, st.Fallback)
	case !sameVals(b.want, out):
		err = fmt.Errorf("%s: %d-task request returned results that differ from the reference", b.name, len(tasks))
	}
	if st.UsedFPGA {
		s.offloaded += len(tasks)
	} else {
		s.fallbacks++
	}
	res := c.result(label, err)
	res.tasks = len(tasks)
	return res
}

func (in *blazeInst) layers(r *layerRun) (map[string]metric, error) {
	plain, traced := r.plainS.(*blazeSession), r.traceS.(*blazeSession)
	m := layerMetrics{}
	tasks := float64(r.plain.tasks)
	m.set("blaze.tasks_per_s", "task/s", tasks/r.plain.sumD().Seconds())
	m.set("blaze.offload_frac", "ratio", float64(plain.offloaded)/tasks)
	m.set("blaze.fallback_frac", "ratio", float64(plain.fallbacks)/float64(r.plain.n))
	if traced.offloaded > 0 {
		m.set("blaze.bytes_per_task", "B", r.tr.counter("blaze.bytes_serialized")/float64(traced.offloaded))
	}
	for _, a := range in.apps {
		m.quantile("blaze.req_ms_p50."+a.Name, "ms", r.plain.opMS(a.Name), 0.5)
	}
	return m, traced.replay(m, r.traced.n, r.replayDeadline)
}

// replay re-runs a uniform sample of the traced pass's requests one
// layer at a time: serialization, the cir evaluator standing in for the
// FPGA, deserialization, and for impure kernels the JIT-compiled JVM
// fallback.
func (s *blazeSession) replay(m layerMetrics, n int, deadline time.Time) error {
	var encUS, execUS, decUS, fbUS float64
	var offTasks, fbTasks int
	for k, i := range replayOrder(n) {
		if time.Now().After(deadline) && k >= 10 {
			break
		}
		b := s.batch(i)
		cls := s.classes[b.name]
		if b.neg != nil {
			vm := jvmsim.New(cls)
			vm.TryJIT()
			tasks := copyVals(b.tasks)
			var err error
			fbUS += timeUS(func() { _, err = vm.CallBatch(tasks) })
			if err != nil {
				return fmt.Errorf("replaying the %s fallback: %w", b.name, err)
			}
			fbTasks += len(tasks)
			continue
		}
		acc := s.mgr.Lookup(cls.ID)
		var bufs map[string][]cir.Value
		var err error
		encUS += timeUS(func() { bufs, err = acc.Layout.NewEncoder().Encode(b.tasks) })
		if err != nil {
			return fmt.Errorf("replaying %s serialization: %w", b.name, err)
		}
		for name, out := range acc.Layout.AllocOutputs(len(b.tasks)) {
			bufs[name] = out
		}
		ev := cir.NewEvaluator(acc.Layout.Kernel)
		ev.MaxSteps = 2_000_000_000
		execUS += timeUS(func() { err = ev.Execute(len(b.tasks), bufs) })
		if err != nil {
			return fmt.Errorf("replaying %s on the cir evaluator: %w", b.name, err)
		}
		decUS += timeUS(func() {
			if cls.Reduce != nil {
				_, err = acc.Layout.DeserializeReduced(bufs)
			} else {
				_, err = acc.Layout.Deserialize(bufs, len(b.tasks))
			}
		})
		if err != nil {
			return fmt.Errorf("replaying %s deserialization: %w", b.name, err)
		}
		offTasks += len(b.tasks)
	}
	if offTasks > 0 {
		m.set("blaze.encode_us_per_task", "us", encUS/float64(offTasks))
		m.set("cir.exec_us_per_task", "us", execUS/float64(offTasks))
		m.set("blaze.decode_us_per_task", "us", decUS/float64(offTasks))
	}
	if fbTasks > 0 {
		m.set("jvmsim.fallback_us_per_task", "us", fbUS/float64(fbTasks))
	}
	return nil
}
