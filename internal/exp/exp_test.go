package exp

import (
	"math"
	"sync"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/obs"
)

// The suite is expensive enough (seconds) to share across tests; all
// assertions are on seed-1 artifacts, which are fully deterministic.
var (
	suiteOnce sync.Once
	suite     *Suite
)

func sharedSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite = NewSuite(1) })
	return suite
}

// TestFig4Shape asserts the qualitative structure of Fig. 4 — the
// orderings and rough factors the paper reports — without pinning
// absolute numbers (our substrate is a simulator, see EXPERIMENTS.md).
func TestFig4Shape(t *testing.T) {
	s := sharedSuite(t)
	r, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Fig4Row{}
	for _, row := range r.Rows {
		rows[row.App] = row
	}
	if len(rows) != len(apps.All()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(apps.All()))
	}

	// Every kernel beats the JVM; PR barely (memory-bound, paper: "even
	// the manual HLS implementation cannot achieve a high performance").
	for app, row := range rows {
		if row.S2FASpeedup <= 1 {
			t.Errorf("%s S2FA speedup %.2fx <= 1", app, row.S2FASpeedup)
		}
	}
	if rows["PR"].S2FASpeedup > 15 {
		t.Errorf("PR speedup %.1fx too high for a memory-bound kernel", rows["PR"].S2FASpeedup)
	}

	// String processing dwarfs the ML kernels (paper: 1225.2x vs 49.9x).
	stringMean := (rows["AES"].S2FASpeedup + rows["S-W"].S2FASpeedup) / 2
	mlMean := (rows["LR"].S2FASpeedup + rows["SVM"].S2FASpeedup + rows["LLS"].S2FASpeedup) / 3
	if stringMean < 4*mlMean {
		t.Errorf("string/ML separation lost: string=%.1fx ml=%.1fx", stringMean, mlMean)
	}
	if stringMean < 100 {
		t.Errorf("string processing mean %.1fx, expected hundreds", stringMean)
	}

	// The LR gap: the manual stage-split design clearly beats the
	// S2FA-generated one, which is stuck at the II=13 floor (paper §5.2).
	if rows["LR"].ManualSpeedup < 1.5*rows["LR"].S2FASpeedup {
		t.Errorf("LR manual (%.1fx) should clearly beat S2FA (%.1fx)",
			rows["LR"].ManualSpeedup, rows["LR"].S2FASpeedup)
	}

	// Competitive on average (paper: ~85% of manual).
	if r.VsManualPct < 50 || r.VsManualPct > 100 {
		t.Errorf("vs-manual = %.0f%%, outside [50, 100]", r.VsManualPct)
	}
	if r.MeanSpeedup < 10 {
		t.Errorf("geomean speedup %.1fx is implausibly low", r.MeanSpeedup)
	}
}

// TestTable2Shape asserts the Table 2 structure: feasible utilizations
// under the 75% cap, the S-W timing failure, and the memory-bound
// character of AES and PR.
func TestTable2Shape(t *testing.T) {
	s := sharedSuite(t)
	rows, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Table2Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	for app, r := range byApp {
		for name, pct := range map[string]int{"BRAM": r.BRAMPct, "DSP": r.DSPPct, "FF": r.FFPct, "LUT": r.LUTPct} {
			if pct < 0 || pct > 76 {
				t.Errorf("%s %s = %d%%, outside the usable cap", app, name, pct)
			}
		}
		if r.FreqMHz < 60 || r.FreqMHz > 250 {
			t.Errorf("%s frequency %d MHz out of range", app, r.FreqMHz)
		}
	}
	// The paper calls out AES and PR as bandwidth-bound.
	if !byApp["PR"].MemoryBound {
		t.Error("PR should be memory-bandwidth bound")
	}
	// Some kernels miss the 250 MHz target (paper: S-W at 100 MHz).
	below := 0
	for _, r := range rows {
		if r.FreqMHz < 250 {
			below++
		}
	}
	if below == 0 {
		t.Error("no design missed the 250 MHz target; Table 2 expects timing-limited kernels")
	}
}

// TestTable1Shape asserts the design-space magnitudes, including the
// paper's S-W observation (> 1e15 points).
func TestTable1Shape(t *testing.T) {
	s := sharedSuite(t)
	rows, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Cardinality < 1e9 {
			t.Errorf("%s space %.3g is implausibly small", r.App, r.Cardinality)
		}
		if r.LoopFactors < 6 || r.Buffers < 2 {
			t.Errorf("%s factors = %d loops / %d buffers", r.App, r.LoopFactors, r.Buffers)
		}
	}
	for _, r := range rows {
		if r.App == "S-W" && r.Cardinality < 1e15 {
			t.Errorf("S-W cardinality %.3g < 1e15 (paper: more than a thousand trillion)", r.Cardinality)
		}
	}
}

// TestFig3Shape asserts the DSE dynamics: S2FA terminates earlier than
// the vanilla 4-hour budget on average, never produces a worse matched-
// time design on most kernels, and the vanilla tuner matches S2FA on
// KMeans (the paper's exception).
func TestFig3Shape(t *testing.T) {
	s := sharedSuite(t)
	r, err := Fig3(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != len(apps.All()) {
		t.Fatalf("series = %d, want %d", len(r.Series), len(apps.All()))
	}
	if r.AvgTimeSavingPct < 10 {
		t.Errorf("time saving %.1f%% too small (paper: 52.5%%)", r.AvgTimeSavingPct)
	}
	if r.QoRImprovement < 1 {
		t.Errorf("matched-time QoR improvement %.2fx < 1 (paper: 35x)", r.QoRImprovement)
	}
	wins := 0
	for _, series := range r.Series {
		sv, vv := series.NormalizedAt(series.S2FA.TotalMinutes)
		if math.IsNaN(vv) || sv <= vv*1.05 {
			wins++
		}
		// S2FA never runs past the vanilla budget.
		if series.S2FA.TotalMinutes > series.Vanilla.TotalMinutes+1e-9 {
			t.Errorf("%s: S2FA ran longer (%.0f) than vanilla (%.0f)",
				series.App, series.S2FA.TotalMinutes, series.Vanilla.TotalMinutes)
		}
	}
	// Same 75% bar as the original 6-of-8: kernels with small design
	// spaces (KNN, and Conv/Hist among the extended workloads) let the
	// vanilla tuner reach a comparable design inside the budget — the
	// same mechanism as the paper's KMeans exception.
	if wins < (len(r.Series)*3)/4 {
		t.Errorf("S2FA ahead at its stop time on only %d/%d kernels", wins, len(r.Series))
	}
	// KMeans: vanilla eventually reaches a comparable design (paper's
	// exception; its space is relatively small).
	for _, series := range r.Series {
		if series.App != "KMeans" {
			continue
		}
		s2, va := series.S2FA.Best.Objective, series.Vanilla.Best.Objective
		if va > s2*1.25 {
			t.Errorf("KMeans vanilla best %.4g much worse than S2FA %.4g; paper expects parity", va, s2)
		}
	}
}

// TestAblationShape asserts the stopping-criteria study's qualitative
// outcome: the trivial criterion runs longer for little QoR gain.
func TestAblationShape(t *testing.T) {
	s := sharedSuite(t)
	r, err := StoppingAblation(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgTrivialHours < r.AvgEntropyHours {
		t.Errorf("trivial (%.1fh) stopped before entropy (%.1fh); paper expects the long tail",
			r.AvgTrivialHours, r.AvgEntropyHours)
	}
	if r.TrivialQoRGainPct > 40 {
		t.Errorf("trivial criterion gained %.1f%% QoR; paper reports only ~4%%", r.TrivialQoRGainPct)
	}
}

// TestRenderersProduceOutput exercises the text rendering of every
// artifact (what cmd/s2fa-bench prints).
func TestRenderersProduceOutput(t *testing.T) {
	s := sharedSuite(t)
	f3, err := Fig3(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Fig4(s)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := Table1(s)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(s)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := StoppingAblation(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"fig3":     f3.Render(),
		"fig4":     f4.Render(),
		"table1":   RenderTable1(t1),
		"table2":   RenderTable2(t2),
		"ablation": ab.Render(),
	} {
		if len(out) < 200 {
			t.Errorf("%s render suspiciously short (%d bytes)", name, len(out))
		}
		t.Logf("%s:\n%s", name, out)
	}
}

// TestJVMSecondsScalesLinearly checks the baseline model's task scaling.
func TestJVMSecondsScalesLinearly(t *testing.T) {
	s := sharedSuite(t)
	r, err := s.Result("KMeans", Modes{})
	if err != nil {
		t.Fatal(err)
	}
	half, err := JVMSecondsForEngine(r.App, r.App.Tasks/2, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := r.JVMSeconds / half
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("JVM time ratio for 2x tasks = %.3f, want ~2", ratio)
	}
}

// TestComponentAblationShape asserts each DSE mechanism contributes in
// the direction the paper's §5.2 analysis claims.
func TestComponentAblationShape(t *testing.T) {
	s := sharedSuite(t)
	r, err := ComponentAblation(s, []string{"KMeans", "AES", "S-W"})
	if err != nil {
		t.Fatal(err)
	}
	if r.SeedsMinutesSaved <= 0 {
		t.Errorf("seed generation saved %.1f minutes; expected a clear positive effect", r.SeedsMinutesSaved)
	}
	if r.PartitionHourGain < 1 {
		t.Errorf("partitioning 1-hour gain %.2fx < 1", r.PartitionHourGain)
	}
	if r.StopHoursSaved <= 0 {
		t.Errorf("entropy stop saved %.2f hours; expected positive", r.StopHoursSaved)
	}
	if out := r.Render(); len(out) < 200 {
		t.Errorf("render too short: %d bytes", len(out))
	}
}

// TestShapeHoldsAcrossSeeds reruns the weakest directional invariants on
// two more seeds, guarding against overfitting the defaults to seed 1.
func TestShapeHoldsAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{2, 3} {
		s := NewSuite(seed)
		f4, err := Fig4(s)
		if err != nil {
			t.Fatal(err)
		}
		rows := map[string]Fig4Row{}
		for _, row := range f4.Rows {
			rows[row.App] = row
		}
		if rows["AES"].S2FASpeedup < 50 {
			t.Errorf("seed %d: AES speedup %.1fx collapsed", seed, rows["AES"].S2FASpeedup)
		}
		if rows["PR"].S2FASpeedup > 20 {
			t.Errorf("seed %d: PR speedup %.1fx too high", seed, rows["PR"].S2FASpeedup)
		}
		if rows["LR"].ManualSpeedup < rows["LR"].S2FASpeedup {
			t.Errorf("seed %d: LR manual below S2FA", seed)
		}
		f3, err := Fig3(s, []string{"KMeans", "S-W"})
		if err != nil {
			t.Fatal(err)
		}
		for _, series := range f3.Series {
			if series.S2FA.TotalMinutes > series.Vanilla.TotalMinutes+1e-9 {
				t.Errorf("seed %d: %s S2FA ran longer than vanilla", seed, series.App)
			}
		}
	}
}

// baselineSpans counts the jvm/baseline spans the trace recorded per app.
func baselineSpans(mem *obs.MemorySink) map[string]int {
	n := map[string]int{}
	for _, e := range mem.Events() {
		if e.Ph == obs.PhaseBegin && e.Cat == "jvm" && e.Name == "baseline" {
			n[e.Args["app"].(string)]++
		}
	}
	return n
}

// TestFig3SkipsBaseline pins the lazy baseline: Fig. 3 never reads
// JVMSeconds, so it runs no JVM baseline, and the Fig. 4 that follows
// on the same suite runs exactly one per app, the Fig. 3 apps included.
func TestFig3SkipsBaseline(t *testing.T) {
	mem := obs.NewMemory()
	s := NewSuite(1)
	s.Trace = obs.New(mem)
	if _, err := Fig3(s, []string{"PR", "KMeans"}); err != nil {
		t.Fatal(err)
	}
	if n := baselineSpans(mem); len(n) != 0 {
		t.Fatalf("Fig3 ran JVM baselines: %v", n)
	}
	if _, err := Fig4(s); err != nil {
		t.Fatal(err)
	}
	n := baselineSpans(mem)
	for _, name := range apps.Names() {
		if n[name] != 1 {
			t.Errorf("%s: %d jvm/baseline spans after Fig4, want 1", name, n[name])
		}
	}
	if len(n) != len(apps.Names()) {
		t.Errorf("baseline spans for %d apps, want %d", len(n), len(apps.Names()))
	}
}
