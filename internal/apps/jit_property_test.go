package apps

import (
	"math/rand"
	"reflect"
	"testing"

	"s2fa/internal/jvmsim"
)

// runEngines pushes the same task batch through a fresh interpreter VM
// and a fresh JIT VM of the app's class and returns both (outputs,
// reduced value, counts, error). Reduction folds the map outputs when
// the class has a reduce method, exercising the second compiled method.
func runEngines(tb testing.TB, a *App, tasks []jvmsim.Val) (outI, outJ []jvmsim.Val, redI, redJ jvmsim.Val, cI, cJ jvmsim.Counts, errI, errJ error) {
	tb.Helper()
	cls, err := a.Class()
	if err != nil {
		tb.Fatalf("%s: class: %v", a.Name, err)
	}
	vmI := jvmsim.New(cls)
	vmJ := jvmsim.New(cls)
	if !vmJ.TryJIT() {
		tb.Fatalf("%s: TryJIT = false", a.Name)
	}
	outI, errI = vmI.CallBatch(tasks)
	outJ, errJ = vmJ.CallBatch(tasks)
	if cls.Reduce != nil && errI == nil && errJ == nil && len(tasks) > 1 {
		redI = outI[0]
		for _, v := range outI[1:] {
			if redI, errI = vmI.Reduce(redI, v); errI != nil {
				break
			}
		}
		redJ = outJ[0]
		for _, v := range outJ[1:] {
			if redJ, errJ = vmJ.Reduce(redJ, v); errJ != nil {
				break
			}
		}
	}
	return outI, outJ, redI, redJ, vmI.Counts, vmJ.Counts, errI, errJ
}

// diffEngines asserts the two engine runs are byte-identical: same
// outputs, same reduced value, same Counts, same errors (text included).
func diffEngines(tb testing.TB, a *App, tasks []jvmsim.Val) {
	tb.Helper()
	outI, outJ, redI, redJ, cI, cJ, errI, errJ := runEngines(tb, a, tasks)
	if (errI == nil) != (errJ == nil) {
		tb.Fatalf("%s: error divergence: interp=%v jit=%v", a.Name, errI, errJ)
	}
	if errI != nil {
		if errI.Error() != errJ.Error() {
			tb.Fatalf("%s: error text divergence:\n  interp: %v\n  jit:    %v", a.Name, errI, errJ)
		}
	} else {
		if !reflect.DeepEqual(outI, outJ) {
			tb.Fatalf("%s: output divergence over %d tasks", a.Name, len(tasks))
		}
		if !reflect.DeepEqual(redI, redJ) {
			tb.Fatalf("%s: reduce divergence: interp=%v jit=%v", a.Name, redI, redJ)
		}
	}
	if cI != cJ {
		tb.Fatalf("%s: counts divergence:\n  interp: %+v\n  jit:    %+v", a.Name, cI, cJ)
	}
}

// TestJITDifferentialAllApps is the acceptance property: for every
// workload and seeds {1, 42, 7}, interpreter and JIT produce
// byte-identical outputs, reduced values, and Counts. Counts feed the
// cost model feeding JVMSeconds, so this is what keeps the Fig. 3/4
// numbers identical whichever engine the suite runs.
func TestJITDifferentialAllApps(t *testing.T) {
	const nTasks = 24
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			for _, seed := range []int64{1, 42, 7} {
				tasks := a.Gen(rand.New(rand.NewSource(seed)), nTasks)
				diffEngines(t, a, tasks)
			}
		})
	}
}

// FuzzJITvsInterp feeds fuzzer-chosen seeds and batch shapes into a
// fuzzer-chosen app kernel and requires bit-for-bit agreement between
// the engines — the CI fuzz job runs this for 30s per push.
func FuzzJITvsInterp(f *testing.F) {
	for _, seed := range []int64{1, 42, 7} {
		for i := range All() {
			f.Add(seed, uint8(i), uint8(8))
		}
	}
	apps := All()
	f.Fuzz(func(t *testing.T, seed int64, appIdx, n uint8) {
		a := apps[int(appIdx)%len(apps)]
		tasks := a.Gen(rand.New(rand.NewSource(seed)), int(n%16)+1)
		diffEngines(t, a, tasks)
	})
}
