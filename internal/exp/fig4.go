package exp

import (
	"fmt"
	"math"
	"strings"

	"s2fa/internal/apps"
)

// Fig4Row is one group of bars in Fig. 4: the speedups of the manual HLS
// design and the S2FA-generated design over the single-threaded JVM
// executor for one kernel.
type Fig4Row struct {
	App           string
	Type          string
	JVMSeconds    float64
	S2FASpeedup   float64
	ManualSpeedup float64
}

// Fig4Result carries all rows plus the aggregate statistics quoted in the
// paper (§5.2 and the abstract/conclusion).
type Fig4Result struct {
	Rows []Fig4Row
	// MeanSpeedup is the geometric mean S2FA speedup over the JVM
	// (paper reports 181.5x average over all kernels).
	MeanSpeedup float64
	// VsManualPct is the average ratio of S2FA to manual speedup
	// (paper: ~85%).
	VsManualPct float64
	// StringProcMean / MLMax are the headline class numbers (paper:
	// 1225.2x for string processing; up to 49.9x for machine learning).
	StringProcMean float64
	MLMax          float64
}

// Fig4 reproduces Fig. 4 over all twelve workload kernels.
func Fig4(s *Suite) (*Fig4Result, error) {
	out := &Fig4Result{}
	var logSum float64
	var ratioSum float64
	var n int
	var stringSum float64
	var stringN int
	for _, name := range apps.Names() {
		r, err := s.Result(name, Modes{})
		if err != nil {
			return nil, err
		}
		row := Fig4Row{
			App:           name,
			Type:          r.App.Type,
			JVMSeconds:    r.JVMSeconds,
			S2FASpeedup:   r.S2FASpeedup(),
			ManualSpeedup: r.ManualSpeedup(),
		}
		out.Rows = append(out.Rows, row)
		if row.S2FASpeedup > 0 {
			logSum += math.Log(row.S2FASpeedup)
			n++
		}
		if row.ManualSpeedup > 0 && row.S2FASpeedup > 0 {
			ratio := row.S2FASpeedup / row.ManualSpeedup
			if ratio > 1 {
				ratio = 1 // S2FA beating the expert counts as parity
			}
			ratioSum += ratio
		}
		switch r.App.Type {
		case "string proc.":
			stringSum += row.S2FASpeedup
			stringN++
		case "classification", "regression":
			if row.S2FASpeedup > out.MLMax {
				out.MLMax = row.S2FASpeedup
			}
		}
	}
	if n > 0 {
		out.MeanSpeedup = math.Exp(logSum / float64(n))
		out.VsManualPct = ratioSum / float64(n) * 100
	}
	if stringN > 0 {
		out.StringProcMean = stringSum / float64(stringN)
	}
	return out, nil
}

// Render prints the figure as a table with log-scale bar sketches.
func (f *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 4: speedup over single-threaded JVM (log scale)\n")
	fmt.Fprintf(&b, "%-8s %-14s %12s %12s  %s\n", "kernel", "type", "S2FA", "manual", "bar (log10: S2FA #, manual +)")
	for _, r := range f.Rows {
		bar := logBar(r.S2FASpeedup, '#')
		mbar := logBar(r.ManualSpeedup, '+')
		fmt.Fprintf(&b, "%-8s %-14s %11.1fx %11.1fx  |%s\n%-38s|%s\n", r.App, r.Type, r.S2FASpeedup, r.ManualSpeedup, bar, "", mbar)
	}
	fmt.Fprintf(&b, "\ngeomean S2FA speedup: %.1fx (paper mean: 181.5x)\n", f.MeanSpeedup)
	fmt.Fprintf(&b, "S2FA vs manual designs: %.0f%% (paper: ~85%%)\n", f.VsManualPct)
	fmt.Fprintf(&b, "string processing mean: %.1fx (paper: 1225.2x); ML best: %.1fx (paper: 49.9x)\n",
		f.StringProcMean, f.MLMax)
	return b.String()
}

func logBar(x float64, c byte) string {
	if x <= 1 {
		return ""
	}
	n := int(math.Log10(x) * 12)
	if n > 48 {
		n = 48
	}
	return strings.Repeat(string(c), n)
}
