package hls

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
	"s2fa/internal/merlin"
	"s2fa/internal/space"
)

func kernelOf(t *testing.T, name string) *cir.Kernel {
	t.Helper()
	k, err := apps.Get(name).Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func annotate(t *testing.T, k *cir.Kernel, loops map[string]cir.LoopOpt, bw map[string]int) *cir.Kernel {
	t.Helper()
	ann, err := merlin.Annotate(k, merlin.Directives{Loops: loops, BitWidths: bw})
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

func TestPipelineImprovesThroughput(t *testing.T) {
	k := kernelOf(t, "KMeans")
	dev := fpga.VU9P()
	base := Estimate(k, dev, 1024, Options{})
	piped := Estimate(annotate(t, k, map[string]cir.LoopOpt{
		"L0": {Pipeline: cir.PipeOn},
		"L1": {Pipeline: cir.PipeOn},
		"L2": {Pipeline: cir.PipeOn},
	}, nil), dev, 1024, Options{})
	if !base.Feasible || !piped.Feasible {
		t.Fatalf("feasibility: base=%v piped=%v", base, piped)
	}
	if piped.Cycles >= base.Cycles {
		t.Errorf("pipelining did not help: %d -> %d cycles", base.Cycles, piped.Cycles)
	}
}

func TestTaskParallelScalesUntilMemoryBound(t *testing.T) {
	k := kernelOf(t, "KMeans")
	dev := fpga.VU9P()
	var prev int64
	for i, u := range []int{1, 2, 4, 8} {
		rep := Estimate(annotate(t, k, map[string]cir.LoopOpt{
			"L0": {Parallel: u, Pipeline: cir.PipeOn},
			"L2": {Pipeline: cir.PipeOn},
		}, nil), dev, 4096, Options{})
		if !rep.Feasible {
			t.Fatalf("u=%d infeasible: %s", u, rep.Reason)
		}
		if i > 0 && rep.Cycles > prev {
			t.Errorf("u=%d regressed: %d -> %d cycles", u, prev, rep.Cycles)
		}
		prev = rep.Cycles
	}
	// The DDR floor is a hard lower bound.
	bytes := 0
	for _, p := range k.Params {
		bytes += p.Length * p.Elem.Bits() / 8
	}
	floor := int64(4096) * int64(bytes) / int64(dev.DDRBytesPerCycle)
	if prev < floor {
		t.Errorf("cycles %d below the memory floor %d", prev, floor)
	}
}

func TestResourcesGrowWithParallelism(t *testing.T) {
	k := kernelOf(t, "KNN")
	dev := fpga.VU9P()
	small := Estimate(annotate(t, k, map[string]cir.LoopOpt{"L0": {Parallel: 2}}, nil), dev, 1024, Options{})
	big := Estimate(annotate(t, k, map[string]cir.LoopOpt{"L0": {Parallel: 16}}, nil), dev, 1024, Options{})
	if big.LUT <= small.LUT || big.DSP < small.DSP {
		t.Errorf("resources did not grow: LUT %d->%d DSP %d->%d", small.LUT, big.LUT, small.DSP, big.DSP)
	}
}

func TestExtremeParallelismInfeasible(t *testing.T) {
	// Paper §4.3.2: factor-256 coarse parallelism is infeasible for most
	// designs due to routing complexity / resources.
	k := kernelOf(t, "S-W")
	dev := fpga.VU9P()
	rep := Estimate(annotate(t, k, map[string]cir.LoopOpt{
		"L0": {Parallel: 256, Pipeline: cir.PipeOn},
		"L1": {Parallel: 64, Pipeline: cir.PipeOn},
		"L2": {Parallel: 64, Pipeline: cir.PipeOn},
	}, nil), dev, 1024, Options{})
	if rep.Feasible {
		t.Errorf("extreme S-W parallelism accepted: %v", rep)
	}
	if rep.Reason == "" {
		t.Error("infeasible report has no reason")
	}
}

func TestTranscendentalIIFloor(t *testing.T) {
	// LR without stage splitting is bounded at II>=13 per task (paper
	// §5.2); the manual stage-split design escapes the floor.
	k := kernelOf(t, "LR")
	dev := fpga.VU9P()
	loops := map[string]cir.LoopOpt{
		"L0": {Pipeline: cir.PipeOn, Parallel: 8},
		"L1": {Pipeline: cir.PipeOn, Parallel: 8},
		"L2": {Pipeline: cir.PipeOn, Parallel: 8},
	}
	bw := map[string]int{"in_1": 512, "in_2": 512, "out": 512}
	auto := Estimate(annotate(t, k, loops, bw), dev, 4096, Options{})
	split := Estimate(annotate(t, k, loops, bw), dev, 4096, Options{StageSplit: true})
	if !auto.Feasible || !split.Feasible {
		t.Fatalf("feasibility: auto=%v split=%v", auto, split)
	}
	if auto.Cycles < 13*4096 {
		t.Errorf("S2FA LR beat the II=13 floor: %d cycles for 4096 tasks", auto.Cycles)
	}
	if split.Cycles >= auto.Cycles {
		t.Errorf("stage splitting did not help: %d vs %d", split.Cycles, auto.Cycles)
	}
}

func TestCarriedPipelineDegradesFrequency(t *testing.T) {
	// Pipelining the Smith-Waterman cell loop (carried through H/D)
	// closes timing far below 250 MHz (paper Table 2: 100 MHz).
	k := kernelOf(t, "S-W")
	dev := fpga.VU9P()
	rep := Estimate(annotate(t, k, map[string]cir.LoopOpt{
		"L2": {Pipeline: cir.PipeOn, Parallel: 16},
	}, nil), dev, 1024, Options{})
	if !rep.Feasible {
		t.Fatalf("infeasible: %s", rep.Reason)
	}
	if rep.FreqMHz > 150 {
		t.Errorf("carried pipeline at %v MHz, expected heavy degradation", rep.FreqMHz)
	}
}

func TestBitWidthRelievesMemoryBoundKernels(t *testing.T) {
	k := kernelOf(t, "PR")
	dev := fpga.VU9P()
	loops := map[string]cir.LoopOpt{"L0": {Pipeline: cir.PipeOn, Parallel: 4}, "L1": {Pipeline: cir.PipeOn}}
	narrow := Estimate(annotate(t, k, loops, map[string]int{"in_1": 32, "in_2": 32}), dev, 4096, Options{})
	wide := Estimate(annotate(t, k, loops, map[string]int{"in_1": 512, "in_2": 512}), dev, 4096, Options{})
	if wide.Cycles > narrow.Cycles {
		t.Errorf("wider interface slower: %d vs %d", wide.Cycles, narrow.Cycles)
	}
}

func TestSynthMinutesBounded(t *testing.T) {
	k := kernelOf(t, "AES")
	dev := fpga.VU9P()
	sp := space.Identify(k)
	rep := Estimate(annotate(t, k, map[string]cir.LoopOpt{}, nil), dev, 1024, Options{})
	if rep.SynthMinutes < 1 || rep.SynthMinutes > 60 {
		t.Errorf("synth minutes out of band: %v", rep.SynthMinutes)
	}
	// An aggressive point costs more than the trivial one.
	big := Estimate(annotate(t, k, sp.Directives(sp.PerformanceSeed()).Loops,
		sp.Directives(sp.PerformanceSeed()).BitWidths), dev, 1024, Options{})
	if big.SynthMinutes <= rep.SynthMinutes {
		t.Errorf("aggressive design cheaper to synthesize: %v <= %v", big.SynthMinutes, rep.SynthMinutes)
	}
}

func TestReduceOutputsDoNotStream(t *testing.T) {
	lr := kernelOf(t, "LR")     // reduce pattern
	km := kernelOf(t, "KMeans") // map pattern
	dev := fpga.VU9P()
	lrRep := Estimate(lr, dev, 1024, Options{})
	inBytes := 0
	for _, p := range lr.Params {
		if !p.IsOutput {
			inBytes += p.Length * p.Elem.Bits() / 8
		}
	}
	if lrRep.BytesPerTask != inBytes {
		t.Errorf("LR streams %dB/task, inputs are %dB (reduce outputs must not stream)", lrRep.BytesPerTask, inBytes)
	}
	kmRep := Estimate(km, dev, 1024, Options{})
	all := 0
	for _, p := range km.Params {
		all += p.Length * p.Elem.Bits() / 8
	}
	if kmRep.BytesPerTask != all {
		t.Errorf("KMeans streams %dB/task, want %dB (map outputs stream)", kmRep.BytesPerTask, all)
	}
}

func TestFlattenRequiresConstantBounds(t *testing.T) {
	// Flattening a loop whose sub-loop has a runtime bound is rejected.
	k := &cir.Kernel{
		Name: "dyn", TaskLoopID: "L0",
		Params: []cir.Param{{Name: "in", Elem: cir.Int, IsArray: true, Length: 1}},
		Body: cir.Block{&cir.Loop{
			ID: "L0", Var: "t", Lo: &cir.IntLit{K: cir.Int, Val: 0},
			Hi: &cir.VarRef{K: cir.Int, Name: "N"}, Step: 1,
			Opt: cir.LoopOpt{Pipeline: cir.PipeFlatten},
			Body: cir.Block{&cir.Loop{
				ID: "L1", Var: "i", Lo: &cir.IntLit{K: cir.Int, Val: 0},
				Hi: &cir.Index{K: cir.Int, Arr: "in", Idx: &cir.VarRef{K: cir.Int, Name: "t"}}, Step: 1,
				Body: cir.Block{},
			}},
		}},
	}
	rep := Estimate(k, fpga.VU9P(), 64, Options{})
	if rep.Feasible || !strings.Contains(rep.Reason, "flatten") {
		t.Errorf("dynamic flatten accepted: %v", rep)
	}
}

func TestReportHelpers(t *testing.T) {
	k := kernelOf(t, "KMeans")
	rep := Estimate(k, fpga.VU9P(), 512, Options{})
	if rep.Seconds() <= 0 {
		t.Error("Seconds not positive")
	}
	if rep.MaxUtil() <= 0 || rep.MaxUtil() > 1 {
		t.Errorf("MaxUtil = %v", rep.MaxUtil())
	}
	d := rep.Design("km")
	if d == nil || d.CyclesPerTask <= 0 || d.KernelName != "km" {
		t.Errorf("design = %+v", d)
	}
	if s := rep.String(); !strings.Contains(s, "cycles=") {
		t.Errorf("String = %q", s)
	}
}

// TestAnalysisEstimateRejectsForeignKernel: pricing a kernel against
// another kernel's analysis is a programmer error and must panic, not
// return a report computed from the wrong loop nest.
func TestAnalysisEstimateRejectsForeignKernel(t *testing.T) {
	km := kernelOf(t, "KMeans")
	an := Analyze(km)
	renamed := cir.CloneKernel(km)
	renamed.Loops()[1].ID = "L99"
	cases := []struct {
		name string
		k    *cir.Kernel
	}{{"other kernel", kernelOf(t, "S-W")}, {"renamed loop", renamed}}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "priced against the analysis of kernel") {
					t.Errorf("%s: recovered %v, want the foreign-kernel panic", c.name, r)
				}
			}()
			an.Estimate(c.k, fpga.VU9P(), 512, Options{})
		}()
	}
}

// TestAnalysisSharedAcrossGoroutines prices design points from four
// goroutines against one Analysis, the way the parallel DSE engine's
// pool does — both as annotations (Estimate) and as directive slices
// (Price, the slices shared too); each report must equal the one-shot
// Estimate. Run under -race it also proves pricing never writes to the
// shared analysis or to the slices.
func TestAnalysisSharedAcrossGoroutines(t *testing.T) {
	k := kernelOf(t, "S-W")
	sp := space.Identify(k)
	dev := fpga.VU9P()
	an := Analyze(k)
	rng := rand.New(rand.NewSource(9))
	var anns []*cir.Kernel
	var opts [][]cir.LoopOpt
	var widths [][]int
	for len(anns) < 32 {
		d := sp.Directives(sp.RandomPoint(rng))
		if ann, err := merlin.Annotate(k, d); err == nil {
			o, w := an.Directives(d)
			anns, opts, widths = append(anns, ann), append(opts, o), append(widths, w)
		}
	}
	want := make([]Report, len(anns))
	for i, ann := range anns {
		want[i] = Estimate(ann, dev, 1024, Options{})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range anns {
				j := (i + 7*g) % len(anns)
				if got := an.Estimate(anns[j], dev, 1024, Options{}); got != want[j] {
					t.Errorf("goroutine %d, annotation %d: shared %v, one-shot %v", g, j, got, want[j])
				}
				if got := an.Price(opts[j], widths[j], dev, 1024, Options{}); got != want[j] {
					t.Errorf("goroutine %d, point %d: priced %v, one-shot %v", g, j, got, want[j])
				}
			}
		}(g)
	}
	wg.Wait()
}
