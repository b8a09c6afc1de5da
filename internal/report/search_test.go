package report_test

import (
	"strings"
	"testing"

	"s2fa/internal/obs"
	"s2fa/internal/report"
)

// searchSection renders the report of a synthetic event stream and
// returns its Search section ("" when absent).
func searchSection(t *testing.T, emit func(tr *obs.Trace)) string {
	t.Helper()
	var ns int64
	mem := obs.NewMemory()
	tr := obs.New(mem, obs.WithClock(func() int64 { ns += 1000; return ns }))
	emit(tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := report.Render(mem.Events(), report.Options{Markdown: true})
	i := strings.Index(out, "\n## Search\n")
	if i < 0 {
		return ""
	}
	sec := out[i+1:]
	if j := strings.Index(sec, "\n## "); j >= 0 {
		sec = sec[:j+1]
	}
	return sec
}

// TestSearchSection checks the Search section on synthetic streams:
// arms in first-use order with their selections, new-best rewards and
// last AUC; the entropy sparkline capped at 64 glyphs; counters sorted
// by name; and no section at all for a run without search events.
func TestSearchSection(t *testing.T) {
	cases := []struct {
		name string
		emit func(tr *obs.Trace)
		want []string // lines that must appear, in this order
		none bool     // the section must be absent
	}{
		{
			name: "arm order, wins and last AUC",
			emit: func(tr *obs.Trace) {
				tr.Event("tuner", "select", obs.Str("arm", "random"), obs.F64("auc", 0.1))
				tr.Event("tuner", "select", obs.Str("arm", "greedy-mutation"), obs.F64("auc", 0.2))
				tr.Event("tuner", "reward", obs.Str("arm", "greedy-mutation"), obs.Bool("new_best", true))
				tr.Event("tuner", "select", obs.Str("arm", "random"), obs.F64("auc", 0.75))
				tr.Event("tuner", "reward", obs.Str("arm", "random"), obs.Bool("new_best", false))
			},
			want: []string{
				"| arm             | selections | new-best rewards | last AUC |",
				"| random          | 2          | 0                | 0.750    |",
				"| greedy-mutation | 1          | 1                | 0.200    |",
			},
		},
		{
			name: "entropy sparkline is capped at 64 glyphs",
			emit: func(tr *obs.Trace) {
				for i := 0; i < 1000; i++ {
					tr.Event("dse", "entropy", obs.F64("h", float64(i%7)))
				}
			},
			want: []string{"Entropy window (1000 samples feeding the stopper): "},
		},
		{
			name: "counters sorted by name",
			emit: func(tr *obs.Trace) {
				tr.Count("z.last", 1)
				tr.Count("a.first", 2)
				tr.Count("m.mid", 3)
				tr.Count("a.first", 5)
			},
			want: []string{
				"| a.first | 7     |",
				"| m.mid   | 3     |",
				"| z.last  | 1     |",
			},
		},
		{
			name: "no search events, no section",
			emit: func(tr *obs.Trace) { tr.Begin("kdsl", "compile").End() },
			none: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sec := searchSection(t, c.emit)
			if c.none {
				if sec != "" {
					t.Fatalf("unexpected Search section:\n%s", sec)
				}
				return
			}
			rest := sec
			for _, w := range c.want {
				i := strings.Index(rest, w)
				if i < 0 {
					t.Fatalf("missing or out of order %q in:\n%s", w, sec)
				}
				rest = rest[i+len(w):]
			}
			if i := strings.Index(sec, "stopper): "); i >= 0 {
				line := sec[i+len("stopper): "):]
				line = line[:strings.Index(line, "\n")]
				if n := len([]rune(line)); n != 64 {
					t.Errorf("sparkline is %d glyphs, want 64", n)
				}
			}
		})
	}
}

// TestSparkline quantizes into the block glyphs with min/max pinning.
func TestSparkline(t *testing.T) {
	got := report.Sparkline([]float64{0, 1, 2, 3}, 8)
	if got != "▁▃▅█" {
		t.Errorf("sparkline = %q", got)
	}
	if report.Sparkline(nil, 8) != "" {
		t.Error("empty input should render empty")
	}
	if got := report.Sparkline([]float64{5, 5, 5}, 8); got != "▁▁▁" {
		t.Errorf("flat curve = %q", got)
	}
	if n := len([]rune(report.Sparkline(make([]float64, 1000), 64))); n != 64 {
		t.Errorf("downsampled width = %d, want 64", n)
	}
}
