package exp

import (
	"fmt"
	"math"
	"strings"

	"s2fa/internal/apps"
	"s2fa/internal/dse"
)

// ComponentRow isolates the contribution of each §4.3 DSE mechanism for
// one kernel, mirroring the paper's per-component reading of Fig. 3:
// seed generation explains the first explored point's quality,
// partitioning the descent rate, and the entropy criterion the
// termination time.
type ComponentRow struct {
	App string

	// Minutes until the first feasible design with and without seed
	// generation (NaN = never found one).
	FirstSeeded, FirstUnseeded float64
	// BestAt60 objective at the 1-hour mark with and without
	// partitioning (both seeded, both entropy-stopped).
	BestAt60Part, BestAt60NoPart float64
	// Minutes to termination with and without the early-stop criterion.
	MinutesStop, MinutesNoStop float64
	// Final objectives of the full flow and each ablated flow.
	BestFull, BestNoSeeds, BestNoPart float64
}

// ComponentAblationResult aggregates the ablation across kernels.
type ComponentAblationResult struct {
	Rows []ComponentRow
	// SeedsMinutesSaved is the mean extra virtual time an unseeded
	// search needs to reach its first feasible design (searches that
	// never find one are charged the full budget).
	SeedsMinutesSaved float64
	// PartitionHourGain is the geometric mean of noPart/part objectives
	// at the 1-hour mark (>1 means partitioning descends faster).
	PartitionHourGain float64
	// StopHoursSaved is the mean termination-time reduction from the
	// entropy criterion, in hours.
	StopHoursSaved float64
}

// ComponentAblation runs the full S2FA flow and three single-mechanism
// ablations per app. It reuses the Suite's S2FA outcome and evaluator;
// the ablated runs themselves are unique to this experiment.
func ComponentAblation(s *Suite, appNames []string) (*ComponentAblationResult, error) {
	if len(appNames) == 0 {
		appNames = apps.Names()
	}
	out := &ComponentAblationResult{}
	var seedSaved, partLog float64
	var seedN, partN int
	var stopSaved float64
	for _, name := range appNames {
		r, err := s.Result(name, Modes{})
		if err != nil {
			return nil, err
		}
		run := func(mut func(*dse.Config)) *dse.Outcome {
			cfg := dse.S2FAConfig(s.Seed)
			cfg.Device = s.Device
			if mut != nil {
				mut(&cfg)
			}
			return dse.Run(r.Kernel, r.Space, r.eval, cfg)
		}

		full := r.S2FA // already computed by the suite
		noSeeds := run(func(c *dse.Config) { c.Seeded = false })
		noPart := run(func(c *dse.Config) { c.Partition = nil })
		noStop := run(func(c *dse.Config) { c.Stopper = dse.NeverStopper{} })

		row := ComponentRow{
			App:            name,
			FirstSeeded:    full.FirstFeasibleMinutes,
			FirstUnseeded:  noSeeds.FirstFeasibleMinutes,
			BestAt60Part:   full.BestAt(60),
			BestAt60NoPart: noPart.BestAt(60),
			MinutesStop:    full.TotalMinutes,
			MinutesNoStop:  noStop.TotalMinutes,
			BestFull:       full.Best.Objective,
			BestNoSeeds:    noSeeds.Best.Objective,
			BestNoPart:     noPart.Best.Objective,
		}
		out.Rows = append(out.Rows, row)

		seeded, unseeded := row.FirstSeeded, row.FirstUnseeded
		if math.IsNaN(seeded) {
			seeded = 240
		}
		if math.IsNaN(unseeded) {
			unseeded = 240
		}
		seedSaved += unseeded - seeded
		seedN++
		if row.BestAt60Part > 0 && !math.IsInf(row.BestAt60Part, 1) &&
			row.BestAt60NoPart > 0 && !math.IsInf(row.BestAt60NoPart, 1) {
			partLog += math.Log(row.BestAt60NoPart / row.BestAt60Part)
			partN++
		}
		stopSaved += (row.MinutesNoStop - row.MinutesStop) / 60
	}
	if seedN > 0 {
		out.SeedsMinutesSaved = seedSaved / float64(seedN)
	}
	if partN > 0 {
		out.PartitionHourGain = math.Exp(partLog / float64(partN))
	}
	out.StopHoursSaved = stopSaved / float64(len(appNames))
	return out, nil
}

// Render prints the component ablation.
func (c *ComponentAblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Component ablation: contribution of each S2FA DSE mechanism (paper §4.3 / §5.2)\n")
	fmt.Fprintf(&b, "%-8s %13s %13s %13s %13s %10s %10s\n",
		"kernel", "feas@(seed)", "feas@(rand)", "1h(part)", "1h(nopart)", "stop(min)", "nostop")
	fm := func(v float64) string {
		if math.IsNaN(v) || math.IsInf(v, 1) {
			return "-"
		}
		return fmt.Sprintf("%.4g", v)
	}
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-8s %13s %13s %13s %13s %10.0f %10.0f\n",
			r.App, fm(r.FirstSeeded), fm(r.FirstUnseeded),
			fm(r.BestAt60Part), fm(r.BestAt60NoPart),
			r.MinutesStop, r.MinutesNoStop)
	}
	fmt.Fprintf(&b, "\nseed generation reaches a feasible design %.0f virtual minutes sooner on average\n", c.SeedsMinutesSaved)
	fmt.Fprintf(&b, "partitioning improves the 1-hour incumbent by %.2fx (geomean)\n", c.PartitionHourGain)
	fmt.Fprintf(&b, "the entropy criterion saves %.1f h of DSE per kernel on average\n", c.StopHoursSaved)
	return b.String()
}
