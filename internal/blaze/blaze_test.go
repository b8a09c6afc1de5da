package blaze

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/jvmsim"
	"s2fa/internal/spark"
)

func layoutFor(t *testing.T, name string) (Layout, *apps.App) {
	t.Helper()
	a := apps.Get(name)
	cls, err := a.Class()
	if err != nil {
		t.Fatal(err)
	}
	k, err := a.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return Layout{Class: cls, Kernel: k}, a
}

// TestSerializeRoundTrip: serializing inputs and reading the segments
// back must reproduce the original task values for every workload shape.
func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"S-W", "KMeans", "LR", "PR", "AES"} {
		name := name
		t.Run(name, func(t *testing.T) {
			layout, a := layoutFor(t, name)
			tasks := a.Gen(rng, 5)
			bufs, err := layout.Serialize(tasks)
			if err != nil {
				t.Fatal(err)
			}
			// Every input param buffer is n*Length long.
			for _, p := range layout.Kernel.Params {
				if p.IsOutput {
					continue
				}
				if got := len(bufs[p.Name]); got != 5*p.Length {
					t.Errorf("%s buffer length = %d, want %d", p.Name, got, 5*p.Length)
				}
			}
			// Segment content matches the original fields.
			for ti, task := range tasks {
				fields := []jvmsim.Val{task}
				if task.IsTup {
					fields = task.Tup
				}
				ins := 0
				for _, p := range layout.Kernel.Params {
					if p.IsOutput {
						continue
					}
					seg := bufs[p.Name][ti*p.Length : (ti+1)*p.Length]
					fv := fields[ins]
					ins++
					if fv.IsArr {
						for i := range seg {
							if seg[i].AsFloat() != fv.Arr[i].Convert(p.Elem).AsFloat() {
								t.Fatalf("task %d field %s elem %d mismatch", ti, p.Name, i)
							}
						}
					} else if seg[0].AsFloat() != fv.S.Convert(p.Elem).AsFloat() {
						t.Fatalf("task %d scalar field %s mismatch", ti, p.Name)
					}
				}
			}
		})
	}
}

func TestSerializeShapeErrors(t *testing.T) {
	layout, _ := layoutFor(t, "S-W")
	short := jvmsim.Tuple(
		jvmsim.Array(make([]cir.Value, 3)), // wrong length (layout wants 128)
		jvmsim.Array(make([]cir.Value, 128)),
	)
	if _, err := layout.Serialize([]jvmsim.Val{short}); err == nil ||
		!strings.Contains(err.Error(), "layout expects") {
		t.Errorf("short array accepted: %v", err)
	}
	scalarTask := jvmsim.Scalar(cir.IntVal(cir.Int, 1))
	if _, err := layout.Serialize([]jvmsim.Val{scalarTask}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestManagerRegistry(t *testing.T) {
	mgr := NewManager(fpga.VU9P())
	acc := &Accelerator{ID: "k1"}
	if err := mgr.Register(acc); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Register(acc); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := mgr.Register(&Accelerator{}); err == nil {
		t.Error("empty ID accepted")
	}
	if mgr.Lookup("k1") != acc || mgr.Lookup("nope") != nil {
		t.Error("lookup broken")
	}
}

// buildAccel assembles a deployable accelerator for an app using the
// default (area) design.
func buildAccel(t *testing.T, name string) (*Manager, *Accelerator, *apps.App) {
	t.Helper()
	layout, a := layoutFor(t, name)
	dev := fpga.VU9P()
	rep := hls.Estimate(layout.Kernel, dev, int64(64), hls.Options{})
	mgr := NewManager(dev)
	acc := &Accelerator{ID: layout.Class.ID, Layout: layout, Design: rep.Design(name)}
	if err := mgr.Register(acc); err != nil {
		t.Fatal(err)
	}
	return mgr, acc, a
}

func TestMapAccMatchesJVM(t *testing.T) {
	mgr, _, a := buildAccel(t, "KMeans")
	rng := rand.New(rand.NewSource(6))
	tasks := a.Gen(rng, 32)
	ctx := spark.NewContext()
	rdd := spark.Parallelize(ctx, tasks, 4)

	cls, _ := a.Class()
	accel, stats, err := Wrap(rdd, mgr).MapAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedFPGA || stats.Tasks != 32 || stats.SimTime <= 0 {
		t.Errorf("stats = %+v", stats)
	}
	jvm, jstats, err := Wrap(rdd, NewManager(fpga.VU9P())).MapAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatal(err)
	}
	if jstats.UsedFPGA || jstats.Fallback == "" {
		t.Errorf("fallback stats = %+v", jstats)
	}
	for i := range accel {
		if accel[i].S.AsInt() != jvm[i].S.AsInt() {
			t.Fatalf("task %d: fpga=%v jvm=%v", i, accel[i], jvm[i])
		}
	}
}

func TestReduceAccMatchesJVM(t *testing.T) {
	mgr, _, a := buildAccel(t, "LR")
	rng := rand.New(rand.NewSource(6))
	tasks := a.Gen(rng, 16)
	ctx := spark.NewContext()
	rdd := spark.Parallelize(ctx, tasks, 2)

	cls, _ := a.Class()
	got, stats, err := Wrap(rdd, mgr).ReduceAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.UsedFPGA {
		t.Error("reduce did not use the accelerator")
	}
	want, _, err := Wrap(rdd, NewManager(fpga.VU9P())).ReduceAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsArr || len(got.Arr) != len(want.Arr) {
		t.Fatalf("shape: %v vs %v", got, want)
	}
	for i := range got.Arr {
		d := got.Arr[i].AsFloat() - want.Arr[i].AsFloat()
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("grad[%d]: %v vs %v", i, got.Arr[i], want.Arr[i])
		}
	}
}

func TestBytesPerTask(t *testing.T) {
	layout, _ := layoutFor(t, "S-W")
	// 2x128 char in + 2x256 char out = 768 bytes.
	if got := layout.BytesPerTask(); got != 768 {
		t.Errorf("BytesPerTask = %d, want 768", got)
	}
}

func TestDeserializeMissingBuffer(t *testing.T) {
	layout, _ := layoutFor(t, "KMeans")
	if _, err := layout.Deserialize(map[string][]cir.Value{}, 1); err == nil {
		t.Error("missing output buffer accepted")
	}
}

// TestAcceleratorFailureFallsBack injects a broken accelerator (its
// layout disagrees with the class) and checks the Blaze runtime falls
// back to the JVM transparently — the paper's decoupled-service behavior.
func TestAcceleratorFailureFallsBack(t *testing.T) {
	layoutKM, aKM := layoutFor(t, "KMeans")
	layoutSW, _ := layoutFor(t, "S-W")
	dev := fpga.VU9P()
	mgr := NewManager(dev)
	// Register the KMeans ID with the S-W kernel layout: serialization
	// will fail at offload time.
	broken := &Accelerator{
		ID:     layoutKM.Class.ID,
		Layout: Layout{Class: layoutKM.Class, Kernel: layoutSW.Kernel},
		Design: &fpga.Design{CyclesPerTask: 1, FreqMHz: 100, BytesPerTask: 1},
	}
	if err := mgr.Register(broken); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	tasks := aKM.Gen(rng, 8)
	rdd := spark.Parallelize(spark.NewContext(), tasks, 2)
	cls, _ := aKM.Class()
	out, stats, err := Wrap(rdd, mgr).MapAcc(jvmsim.New(cls))
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if stats.UsedFPGA {
		t.Error("broken accelerator reported as used")
	}
	if !strings.Contains(stats.Fallback, "accelerator error") {
		t.Errorf("fallback reason = %q", stats.Fallback)
	}
	if len(out) != 8 {
		t.Errorf("fallback produced %d results", len(out))
	}
}

// TestMultipleAcceleratorsCoexist registers two kernels and checks each
// Spark job is routed to its own design by accelerator ID.
func TestMultipleAcceleratorsCoexist(t *testing.T) {
	mgrKM, accKM, aKM := buildAccel(t, "KMeans")
	layoutPR, aPR := layoutFor(t, "PR")
	dev := fpga.VU9P()
	repPR := hls.Estimate(layoutPR.Kernel, dev, 64, hls.Options{})
	accPR := &Accelerator{ID: layoutPR.Class.ID, Layout: layoutPR, Design: repPR.Design("PR")}
	if err := mgrKM.Register(accPR); err != nil {
		t.Fatal(err)
	}
	if mgrKM.Lookup("KMeans_kernel") != accKM || mgrKM.Lookup("PR_kernel") != accPR {
		t.Fatal("registry routing broken")
	}
	rng := rand.New(rand.NewSource(9))
	clsKM, _ := aKM.Class()
	clsPR, _ := aPR.Class()
	rddKM := spark.Parallelize(spark.NewContext(), aKM.Gen(rng, 4), 1)
	rddPR := spark.Parallelize(spark.NewContext(), aPR.Gen(rng, 4), 1)
	_, sKM, err := Wrap(rddKM, mgrKM).MapAcc(jvmsim.New(clsKM))
	if err != nil || !sKM.UsedFPGA {
		t.Errorf("KMeans routing: %v %+v", err, sKM)
	}
	_, sPR, err := Wrap(rddPR, mgrKM).MapAcc(jvmsim.New(clsPR))
	if err != nil || !sPR.UsedFPGA {
		t.Errorf("PR routing: %v %+v", err, sPR)
	}
}

// TestReduceOverEmptyRDD checks the error path.
func TestReduceOverEmptyRDD(t *testing.T) {
	mgr, _, a := buildAccel(t, "LR")
	cls, _ := a.Class()
	rdd := spark.Parallelize(spark.NewContext(), []jvmsim.Val{}, 1)
	mgr2 := NewManager(fpga.VU9P())
	_ = mgr
	if _, _, err := Wrap(rdd, mgr2).ReduceAcc(jvmsim.New(cls)); err == nil {
		t.Error("reduce over empty RDD accepted")
	}
}

// sameVal is bit-exact equality of JVM values.
func sameVal(a, b jvmsim.Val) bool {
	same := func(x, y cir.Value) bool {
		return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F)
	}
	if a.IsArr != b.IsArr || a.IsTup != b.IsTup || len(a.Arr) != len(b.Arr) || len(a.Tup) != len(b.Tup) || !same(a.S, b.S) {
		return false
	}
	for i := range a.Arr {
		if !same(a.Arr[i], b.Arr[i]) {
			return false
		}
	}
	for i := range a.Tup {
		if !sameVal(a.Tup[i], b.Tup[i]) {
			return false
		}
	}
	return true
}

// TestConcurrentOffloadsMatchSequential sends MapAcc and ReduceAcc
// requests for several apps from several goroutines through one Manager,
// so requests on one accelerator share its pooled encoders and
// evaluators, and requires every result to be bit-identical to the same
// request run alone.
func TestConcurrentOffloadsMatchSequential(t *testing.T) {
	dev := fpga.VU9P()
	mgr := NewManager(dev)
	type request struct {
		name  string
		tasks []jvmsim.Val
		want  []jvmsim.Val
	}
	var reqs []*request
	for _, name := range []string{"KMeans", "LR", "AES", "S-W", "KNN"} {
		layout, a := layoutFor(t, name)
		rep := hls.Estimate(layout.Kernel, dev, 64, hls.Options{})
		if err := mgr.Register(&Accelerator{ID: layout.Class.ID, Layout: layout, Design: rep.Design(name)}); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(12))
		for _, n := range []int{1, 6} {
			if name == "S-W" && n > 1 {
				n = 2
			}
			reqs = append(reqs, &request{name: name, tasks: a.Gen(rng, n)})
		}
	}
	send := func(r *request) ([]jvmsim.Val, error) {
		cls, err := apps.Get(r.name).Class()
		if err != nil {
			return nil, err
		}
		rdd := Wrap(spark.Parallelize(spark.NewContext(), r.tasks, 2), mgr)
		var out []jvmsim.Val
		var st Stats
		if cls.Reduce != nil {
			var v jvmsim.Val
			v, st, err = rdd.ReduceAcc(jvmsim.New(cls))
			out = []jvmsim.Val{v}
		} else {
			out, st, err = rdd.MapAcc(jvmsim.New(cls))
		}
		if err == nil && !st.UsedFPGA {
			err = fmt.Errorf("%s fell back to the JVM: %s", r.name, st.Fallback)
		}
		return out, err
	}
	for _, r := range reqs {
		out, err := send(r)
		if err != nil {
			t.Fatal(err)
		}
		r.want = out
	}

	const clients, rounds = 4, 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds*len(reqs); i++ {
				r := reqs[(c*7+i)%len(reqs)]
				out, err := send(r)
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) != len(r.want) {
					t.Errorf("client %d: %s returned %d results, want %d", c, r.name, len(out), len(r.want))
					return
				}
				for j := range out {
					if !sameVal(out[j], r.want[j]) {
						t.Errorf("client %d: %s result %d = %v, sequential %v", c, r.name, j, out[j], r.want[j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
