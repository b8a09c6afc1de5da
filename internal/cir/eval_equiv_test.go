package cir_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/blaze"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/depend"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

// execution is one Execute call of a differential run.
type execution struct {
	n    int
	bufs map[string][]cir.Value
}

func copyBufs(bufs map[string][]cir.Value) map[string][]cir.Value {
	out := make(map[string][]cir.Value, len(bufs))
	for name, b := range bufs {
		out[name] = append([]cir.Value(nil), b...)
	}
	return out
}

// sameBits is bit-exact Value equality (NaNs of equal payload are equal).
func sameBits(a, b cir.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diffRuns executes runs in order on one reference walker and on one
// compiled evaluator, each over its own clone of k (so a store into a
// global cannot leak between the sides), and describes the first
// difference in error text, Steps or any buffer element; "" when none.
// Running several executions on the same two evaluators checks that a
// reused compiled evaluator behaves like a fresh walk every time.
func diffRuns(k *cir.Kernel, maxSteps int64, runs []execution) string {
	ref := newRefEvaluator(cir.CloneKernel(k))
	ref.MaxSteps = maxSteps
	ev := cir.NewEvaluator(cir.CloneKernel(k))
	ev.MaxSteps = maxSteps
	for i, r := range runs {
		rb, cb := copyBufs(r.bufs), copyBufs(r.bufs)
		rerr, cerr := ref.Execute(r.n, rb), ev.Execute(r.n, cb)
		if errText(rerr) != errText(cerr) {
			return fmt.Sprintf("execution %d (n=%d): error %q, reference %q", i, r.n, errText(cerr), errText(rerr))
		}
		if ref.Steps != ev.Steps {
			return fmt.Sprintf("execution %d (n=%d): Steps %d, reference %d", i, r.n, ev.Steps, ref.Steps)
		}
		names := make([]string, 0, len(rb))
		for name := range rb {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for j := range rb[name] {
				if !sameBits(rb[name][j], cb[name][j]) {
					return fmt.Sprintf("execution %d (n=%d): %s[%d] = %+v, reference %+v", i, r.n, name, j, cb[name][j], rb[name][j])
				}
			}
		}
	}
	return ""
}

// layoutRuns serializes each batch through the Blaze layout of cls and
// k into one execution, with zeroed output buffers.
func layoutRuns(t *testing.T, cls *bytecode.Class, k *cir.Kernel, batches ...[]jvmsim.Val) []execution {
	t.Helper()
	layout := blaze.Layout{Class: cls, Kernel: k}
	var runs []execution
	for _, tasks := range batches {
		bufs, err := layout.Serialize(tasks)
		if err != nil {
			t.Fatalf("serialize: %v", err)
		}
		for name, out := range layout.AllocOutputs(len(tasks)) {
			bufs[name] = out
		}
		runs = append(runs, execution{n: len(tasks), bufs: bufs})
	}
	return runs
}

// equivTasks is the batch size per app: small, since the reference
// walker runs every batch too, and smallest for S-W, whose tasks cost
// far more than any other app's.
func equivTasks(a *apps.App) int {
	if a.Name == "S-W" {
		return 1
	}
	return 3
}

// TestEvaluatorMatchesReference checks the compiled evaluator against the
// tree-walking reference on every app, on Merlin materializations of a
// seeded sample of each app's design points, on generated kernels and on
// hand-built kernels that fail at run time: identical output buffers,
// Steps and error text, over two executions of one evaluator.
func TestEvaluatorMatchesReference(t *testing.T) {
	const maxSteps = 2_000_000_000
	t.Run("apps", func(t *testing.T) {
		for _, a := range apps.All() {
			cls, k := appKernel(t, a)
			rng := rand.New(rand.NewSource(11))
			n := equivTasks(a)
			runs := layoutRuns(t, cls, k, a.Gen(rng, n+1), a.Gen(rng, n))
			if d := diffRuns(k, maxSteps, runs); d != "" {
				t.Errorf("%s: %s", a.Name, d)
			}
		}
	})
	t.Run("merlin", func(t *testing.T) {
		// Per transform, how many materialized variants exercised it.
		var tiled, unrolled, flattened, treeReduced int
		for _, a := range apps.All() {
			cls, k := appKernel(t, a)
			// Unrolling a loop of this form materializes a tree reduction.
			reductions := map[string]bool{}
			for _, l := range k.Loops() {
				_, _, reductions[l.ID] = depend.ReductionForm(l)
			}
			sp := space.Identify(k)
			prng := rand.New(rand.NewSource(21))
			trng := rand.New(rand.NewSource(22))
			n := equivTasks(a)
			tasks := a.Gen(trng, n)
			for trial := 0; trial < 6; trial++ {
				d := sp.Directives(sp.RandomPoint(prng))
				xk, err := merlin.Materialize(k, d)
				if err != nil {
					continue
				}
				for id, opt := range d.Loops {
					tiled += b2i(opt.Tile > 1)
					unrolled += b2i(opt.Parallel > 1)
					flattened += b2i(opt.Pipeline == cir.PipeFlatten)
					treeReduced += b2i(opt.Parallel > 1 && reductions[id])
				}
				if diff := diffRuns(xk, maxSteps, layoutRuns(t, cls, xk, tasks, tasks[:1])); diff != "" {
					t.Errorf("%s with %v: %s", a.Name, d.Loops, diff)
				}
			}
		}
		t.Logf("materialized loops: %d tiled, %d unrolled, %d flattened, %d tree-reduced", tiled, unrolled, flattened, treeReduced)
		if tiled == 0 || unrolled == 0 || flattened == 0 || treeReduced == 0 {
			t.Errorf("the design-point sample misses a transform: %d tiled, %d unrolled, %d flattened, %d tree-reduced",
				tiled, unrolled, flattened, treeReduced)
		}
	})
	t.Run("kdslgen", func(t *testing.T) {
		for _, g := range kdslgen.Generate(5, 24) {
			cls, err := kdsl.CompileSource(g.Source)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			k, err := b2c.Compile(cls)
			if err != nil {
				t.Fatalf("%s: %v", g.Name, err)
			}
			rng := rand.New(rand.NewSource(31))
			var batch []jvmsim.Val
			for i := 0; i < 3; i++ {
				batch = append(batch, genTask(g.NewTask(rng)))
			}
			if d := diffRuns(k, maxSteps, layoutRuns(t, cls, k, batch, batch[:2])); d != "" {
				t.Errorf("%s: %s", g.Name, d)
			}
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, c := range errorCases() {
			runs := make([]execution, len(c.ns))
			for i, n := range c.ns {
				runs[i] = execution{n: n, bufs: c.bufs(n)}
			}
			if d := diffRuns(c.k, c.maxSteps, runs); d != "" {
				t.Errorf("%s: %s", c.name, d)
				continue
			}
			// The comparison only proves something if the error fires.
			ev := cir.NewEvaluator(c.k)
			ev.MaxSteps = c.maxSteps
			var err error
			for _, r := range runs {
				err = ev.Execute(r.n, copyBufs(r.bufs))
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: last execution returned %v, want an error containing %q", c.name, err, c.want)
			}
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func appKernel(t *testing.T, a *apps.App) (*bytecode.Class, *cir.Kernel) {
	t.Helper()
	cls, err := a.Class()
	if err != nil {
		t.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return cls, k
}

// genTask packs a generated task into the jvmsim input shape: one field
// bare, several as a tuple.
func genTask(task []kdslgen.FieldVal) jvmsim.Val {
	fs := make([]jvmsim.Val, len(task))
	for i, f := range task {
		if f.IsArr {
			fs[i] = jvmsim.Array(append([]cir.Value(nil), f.Arr...))
		} else {
			fs[i] = jvmsim.Scalar(f.S)
		}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return jvmsim.Tuple(fs...)
}

// errorCase is a hand-built kernel whose last execution must fail with
// an error containing want.
type errorCase struct {
	name     string
	k        *cir.Kernel
	maxSteps int64
	ns       []int // task counts of successive executions
	bufs     func(n int) map[string][]cir.Value
	want     string
}

func ilit(v int64) cir.Expr        { return &cir.IntLit{K: cir.Int, Val: v} }
func ivar(name string) *cir.VarRef { return &cir.VarRef{K: cir.Int, Name: name} }
func elem(arr string, i cir.Expr) *cir.Index {
	return &cir.Index{K: cir.Int, Arr: arr, Idx: i}
}
func ibin(op cir.BinOp, l, r cir.Expr) cir.Expr { return &cir.Binary{K: cir.Int, Op: op, L: l, R: r} }

// taskKernel wraps body in a task loop over N, with an Int input "in"
// and an Int output "out" of one element per task each.
func taskKernel(pre cir.Block, body ...cir.Stmt) *cir.Kernel {
	return &cir.Kernel{
		Name: "e", TaskLoopID: "L0",
		Params: []cir.Param{
			{Name: "in", Elem: cir.Int, IsArray: true, Length: 1},
			{Name: "out", Elem: cir.Int, IsArray: true, Length: 1, IsOutput: true},
		},
		Body: append(pre, &cir.Loop{ID: "L0", Var: "_t", Lo: ilit(0), Hi: ivar("N"), Step: 1, Body: body}),
	}
}

func ioBufs(n int) map[string][]cir.Value {
	in, out := make([]cir.Value, n), make([]cir.Value, n)
	for i := range in {
		in[i] = cir.IntVal(cir.Int, int64(i+1))
		out[i].K = cir.Int
	}
	return map[string][]cir.Value{"in": in, "out": out}
}

func errorCases() []errorCase {
	out := func(rhs cir.Expr) cir.Stmt { return &cir.Assign{LHS: elem("out", ivar("_t")), RHS: rhs} }
	copyIn := out(elem("in", ivar("_t")))
	return []errorCase{
		{name: "step budget in a statement", k: taskKernel(nil, copyIn, copyIn), maxSteps: 7, ns: []int{4},
			bufs: ioBufs, want: "cir: step budget exceeded (7)"},
		{name: "step budget in a while loop",
			k:        taskKernel(nil, &cir.While{Cond: &cir.IntLit{K: cir.Bool, Val: 1}}),
			maxSteps: 50, ns: []int{1}, bufs: ioBufs, want: "step budget exceeded in while loop"},
		{name: "step budget in an empty loop that never advances",
			k:        taskKernel(nil, &cir.Loop{ID: "L1", Var: "i", Lo: ilit(0), Hi: ilit(1), Step: 0}),
			maxSteps: 1000, ns: []int{1}, bufs: ioBufs, want: "cir: step budget exceeded (1000)"},
		{name: "out-of-bounds read", k: taskKernel(nil, out(elem("in", ilit(5)))), maxSteps: 100, ns: []int{2},
			bufs: ioBufs, want: `index 5 out of bounds for array "in" (len 2)`},
		{name: "out-of-bounds store", k: taskKernel(nil, &cir.Assign{LHS: elem("out", ibin(cir.Sub, ivar("_t"), ilit(1))), RHS: ilit(1)}),
			maxSteps: 100, ns: []int{2}, bufs: ioBufs, want: `index -1 out of bounds for array "out"`},
		{name: "undefined variable", k: taskKernel(nil, out(ivar("ghost"))), maxSteps: 100, ns: []int{1},
			bufs: ioBufs, want: `read of undefined variable "ghost"`},
		{name: "unknown array read", k: taskKernel(nil, out(elem("nope", ilit(0)))), maxSteps: 100, ns: []int{1},
			bufs: ioBufs, want: `read of unknown array "nope"`},
		{name: "unknown array store", k: taskKernel(nil, &cir.Assign{LHS: elem("nope", elem("in", ilit(9))), RHS: ilit(1)}),
			maxSteps: 100, ns: []int{1}, bufs: ioBufs, want: `store to unknown array "nope"`},
		{name: "integer division by zero", k: taskKernel(nil, out(ibin(cir.Div, ilit(1), ibin(cir.Sub, ivar("_t"), ilit(1))))),
			maxSteps: 100, ns: []int{3}, bufs: ioBufs, want: "integer division by zero"},
		{name: "integer remainder by zero", k: taskKernel(nil, out(ibin(cir.Rem, ilit(1), ibin(cir.Sub, ivar("_t"), ilit(2))))),
			maxSteps: 100, ns: []int{3}, bufs: ioBufs, want: "integer remainder by zero"},
		{name: "missing buffer", k: taskKernel(nil, copyIn), maxSteps: 100, ns: []int{2, 1},
			bufs: func(n int) map[string][]cir.Value {
				b := ioBufs(n)
				if n == 1 {
					delete(b, "out")
				}
				return b
			}, want: `missing buffer for parameter "out"`},
		{name: "short buffer", k: taskKernel(nil, copyIn), maxSteps: 100, ns: []int{2, 3},
			bufs: func(n int) map[string][]cir.Value {
				b := ioBufs(n)
				b["in"] = b["in"][:2]
				return b
			}, want: `buffer "in" has 2 elements, kernel needs 3`},
		{name: "scalar parameter buffer", k: func() *cir.Kernel {
			k := taskKernel(nil, out(ivar("bias")))
			k.Params = append(k.Params, cir.Param{Name: "bias", Elem: cir.Int})
			return k
		}(), maxSteps: 100, ns: []int{1, 1},
			bufs: func(n int) map[string][]cir.Value {
				b := ioBufs(n)
				b["bias"] = []cir.Value{cir.IntVal(cir.Int, 3), cir.IntVal(cir.Int, 4)}
				return b
			}, want: `scalar parameter "bias" needs a 1-element buffer`},
		{
			// The first execution (N = 1) skips the read and declares tmp;
			// the second reads tmp before its ArrDecl runs again, which
			// must fail as on a fresh walk, not see the first one's buffer.
			name: "local array read before its declaration on reuse",
			k: taskKernel(cir.Block{
				&cir.If{Cond: &cir.Binary{K: cir.Bool, Op: cir.Gt, L: ivar("N"), R: ilit(1)},
					Then: cir.Block{&cir.Decl{Name: "x", K: cir.Int, Init: elem("tmp", ilit(0))}}},
				&cir.ArrDecl{Name: "tmp", Elem: cir.Int, Len: 2},
				&cir.Assign{LHS: elem("tmp", ilit(0)), RHS: ilit(5)},
			}, copyIn),
			maxSteps: 100, ns: []int{1, 2}, bufs: ioBufs, want: `read of unknown array "tmp"`,
		},
	}
}

// warmEvaluator compiles app a's kernel, serializes n seeded tasks
// into its buffers and executes them once, so the evaluator's frame,
// each ArrDecl's buffer and each call site's argument buffer exist.
func warmEvaluator(tb testing.TB, a *apps.App, n int) (*cir.Evaluator, map[string][]cir.Value) {
	tb.Helper()
	cls, err := a.Class()
	if err != nil {
		tb.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		tb.Fatal(err)
	}
	layout := blaze.Layout{Class: cls, Kernel: k}
	bufs, err := layout.Serialize(a.Gen(rand.New(rand.NewSource(41)), n))
	if err != nil {
		tb.Fatal(err)
	}
	for name, out := range layout.AllocOutputs(n) {
		bufs[name] = out
	}
	ev := cir.NewEvaluator(k)
	ev.MaxSteps = 2_000_000_000
	if err := ev.Execute(n, bufs); err != nil {
		tb.Fatal(err)
	}
	return ev, bufs
}

// execApps are the apps whose warm Execute is pinned and benchmarked:
// S-W (two score tables declared per task, a traceback while loop),
// KMeans and LR (floating-point host buffers, intrinsic calls).
var execApps = []string{"S-W", "KMeans", "LR"}

// TestExecuteSteadyStateAllocs: a warm evaluator executes 8 tasks
// without allocating. The frame, each ArrDecl's buffer and each call
// site's argument buffer are allocated once and reused.
func TestExecuteSteadyStateAllocs(t *testing.T) {
	for _, name := range execApps {
		ev, bufs := warmEvaluator(t, apps.Get(name), 8)
		allocs := testing.AllocsPerRun(2, func() {
			if err := ev.Execute(8, bufs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm Execute of 8 tasks allocates %v times, want 0", name, allocs)
		}
	}
}

// BenchmarkExecute times one warm Execute of 8 tasks per app, the
// batch of a Blaze offload; run it with -benchmem.
func BenchmarkExecute(b *testing.B) {
	for _, name := range execApps {
		b.Run(name, func(b *testing.B) {
			ev, bufs := warmEvaluator(b, apps.Get(name), 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ev.Execute(8, bufs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
