package apps

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"s2fa/internal/dse"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
)

var updateOutcomes = flag.Bool("update", false, "rewrite testdata/outcomes.golden")

// goldenConfig is one DSE configuration the outcome golden covers; flat
// wraps the evaluator in dse.FlatInfeasible (stock OpenTuner).
type goldenConfig struct {
	name string
	cfg  func(seed int64) dse.Config
	flat bool
}

// goldenConfigs are the configurations whose evaluator traffic differs
// most: vanilla (one partition, no guard), S2FA without the prune guard
// (the only one where exact repeats reach the memo), and the trivial
// stopper.
var goldenConfigs = []goldenConfig{
	{"vanilla", dse.VanillaConfig, true},
	{"s2fa-noprune", func(seed int64) dse.Config {
		c := dse.S2FAConfig(seed)
		c.Prune = false
		return c
	}, false},
	{"trivial", dse.TrivialStopConfig, false},
}

// fp fingerprints a DSE outcome: everything a reader of Fig. 3 or of a
// build sees. Floats print in their shortest exact form.
func fp(o *dse.Outcome) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return fmt.Sprintf("evals=%d vmin=%s best=%s point=%s first=%s traj=%d stop=%s pruned=%d/%d/%d/%d",
		o.Evaluations, g(o.TotalMinutes), g(o.Best.Objective), o.Best.Point.Key(), g(o.FirstFeasible),
		len(o.Trajectory), o.StopReason, o.StaticallyPruned, o.DependPruned, o.AccessPruned, o.RangeCollapsed)
}

// outcomeTable runs every workload, seed 1-3 and golden configuration
// on the given engine and renders one fingerprint line per run.
func outcomeTable(t *testing.T, engine dse.Engine) string {
	t.Helper()
	dev := fpga.VU9P()
	var b strings.Builder
	for _, a := range All() {
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			for _, gc := range goldenConfigs {
				sp := space.Identify(k)
				eval := dse.NewEvaluator(k, sp, dev, int64(a.Tasks), hls.Options{})
				if gc.flat {
					eval = dse.FlatInfeasible(eval)
				}
				cfg := gc.cfg(seed)
				cfg.Device = dev
				cfg.Engine = engine
				cfg.Parallelism = 2
				fmt.Fprintf(&b, "%-9s %d %-12s %s\n", a.Name, seed, gc.name, fp(dse.Run(k, sp, eval, cfg)))
			}
		}
	}
	return b.String()
}

// TestOutcomeGolden pins the outcome of every workload × seed 1-3 in
// three configurations against one golden file, which both engines must
// reproduce byte for byte. A change to the search's mechanics that moves
// a line must be deliberate: rerun with -update and account for every
// changed line.
func TestOutcomeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x seed x config sweep")
	}
	const path = "testdata/outcomes.golden"
	seq := outcomeTable(t, dse.EngineSequential)
	if *updateOutcomes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if seq != string(want) {
		t.Errorf("sequential outcomes drifted from %s:\n--- want\n%s--- got\n%s", path, want, seq)
	}
	if par := outcomeTable(t, dse.EngineParallel); par != string(want) {
		t.Errorf("parallel outcomes drifted from %s:\n--- want\n%s--- got\n%s", path, want, par)
	}
}
