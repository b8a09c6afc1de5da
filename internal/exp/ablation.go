package exp

import (
	"fmt"
	"math"
	"strings"

	"s2fa/internal/apps"
)

// AblationRow compares stopping criteria for one kernel.
type AblationRow struct {
	App            string
	EntropyMinutes float64
	TrivialMinutes float64
	EntropyBest    float64
	TrivialBest    float64
}

// AblationResult is the §5.2 stopping-criteria study: the trivial
// "no-improvement-for-10-iterations" criterion versus the Shannon-entropy
// criterion. The paper finds the trivial criterion runs about an hour
// longer (~2.8 h vs ~1.9 h) for only ~4% average QoR gain.
type AblationResult struct {
	Rows []AblationRow
	// AvgEntropyHours / AvgTrivialHours are the mean termination times.
	AvgEntropyHours float64
	AvgTrivialHours float64
	// TrivialQoRGainPct is the average extra quality the longer trivial
	// runs buy (positive = trivial slightly better).
	TrivialQoRGainPct float64
}

// StoppingAblation runs both criteria over the given apps.
func StoppingAblation(s *Suite, appNames []string) (*AblationResult, error) {
	if len(appNames) == 0 {
		appNames = apps.Names()
	}
	out := &AblationResult{}
	var entMin, triMin, gain float64
	var gainN int
	for _, name := range appNames {
		r, err := s.result(name, Modes{Trivial: true}, false)
		if err != nil {
			return nil, err
		}
		row := AblationRow{
			App:            name,
			EntropyMinutes: r.S2FA.TotalMinutes,
			TrivialMinutes: r.Trivial.TotalMinutes,
			EntropyBest:    r.S2FA.Best.Objective,
			TrivialBest:    r.Trivial.Best.Objective,
		}
		out.Rows = append(out.Rows, row)
		entMin += row.EntropyMinutes
		triMin += row.TrivialMinutes
		if row.EntropyBest > 0 && !math.IsInf(row.EntropyBest, 1) &&
			row.TrivialBest > 0 && !math.IsInf(row.TrivialBest, 1) {
			gain += row.EntropyBest/row.TrivialBest - 1
			gainN++
		}
	}
	n := float64(len(appNames))
	out.AvgEntropyHours = entMin / n / 60
	out.AvgTrivialHours = triMin / n / 60
	if gainN > 0 {
		out.TrivialQoRGainPct = gain / float64(gainN) * 100
	}
	return out, nil
}

// Render prints the ablation study.
func (a *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Stopping-criteria ablation (Shannon entropy vs no-improvement-for-10-iterations)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %14s %14s\n", "kernel", "entropy(min)", "trivial(min)", "entropy best", "trivial best")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-8s %14.0f %14.0f %14.6g %14.6g\n",
			r.App, r.EntropyMinutes, r.TrivialMinutes, r.EntropyBest, r.TrivialBest)
	}
	fmt.Fprintf(&b, "\nentropy stops at %.1f h avg (paper: ~1.9 h); trivial at %.1f h (paper: ~2.8 h); trivial QoR gain %.1f%% (paper: ~4%%)\n",
		a.AvgEntropyHours, a.AvgTrivialHours, a.TrivialQoRGainPct)
	return b.String()
}
