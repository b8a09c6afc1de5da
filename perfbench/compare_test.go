package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runs builds one record per value, seeds 1..n.
func runs(workload, metricName string, trace bool, values ...float64) []record {
	var out []record
	for i, v := range values {
		out = append(out, record{Workload: workload, Seed: int64(i + 1), Trace: trace,
			Metrics: map[string]metric{metricName: {Value: v}}})
	}
	return out
}

func verdictOf(t *testing.T, d metricSpec, a, b []record) verdictRow {
	t.Helper()
	row, ok := judge(d, a, b)
	if !ok {
		t.Fatal("no row")
	}
	return row
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricSpec{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	thr := metricSpec{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricSpec
		a, b []float64
		want string
	}{
		{"same", lat, base, base, "unchanged"},
		{"small drift within bound", lat, base, shift(1.03), "unchanged"},
		{"slower beyond bound", lat, base, shift(1.2), "regressed"},
		{"faster, every pair won", lat, base, shift(0.8), "improved"},
		{"higher is better", thr, base, shift(1.2), "improved"},
		{"lower throughput", thr, base, shift(0.8), "regressed"},
		{"too noisy to judge", lat, []float64{50, 150, 80, 120, 100}, []float64{60, 140, 90, 110, 100}, "unresolved"},
		{"noisy but every run better", lat, []float64{150, 170, 190, 210, 230}, []float64{50, 70, 90, 110, 130}, "improved"},
	}
	for _, c := range cases {
		row := verdictOf(t, c.d, runs("w", c.d.Name, false, c.a...), runs("w", c.d.Name, false, c.b...))
		if row.verdict != c.want {
			t.Errorf("%s: verdict %s (change %+.3f, wins %d/%d), want %s", c.name, row.verdict, row.change, row.wins, row.pairs, c.want)
		}
	}
}

func TestCompareNeedsNineOfTenPairedWins(t *testing.T) {
	d := metricSpec{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	a := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	// Eight of ten pairs better by 5%, two worse: the median moved, but
	// not by the paired rule.
	b := []float64{95, 95, 95, 95, 95, 95, 95, 95, 105, 105}
	row := verdictOf(t, d, runs("w", d.Name, false, a...), runs("w", d.Name, false, b...))
	if row.wins != 8 || row.pairs != 10 {
		t.Fatalf("wins %d/%d, want 8/10", row.wins, row.pairs)
	}
	if row.verdict != "unchanged" {
		t.Errorf("verdict %s, want unchanged", row.verdict)
	}
	b[8] = 95
	row = verdictOf(t, d, runs("w", d.Name, false, a...), runs("w", d.Name, false, b...))
	if row.verdict != "improved" {
		t.Errorf("9/10 wins: verdict %s, want improved", row.verdict)
	}
}

func TestComparePerLayerWithoutBound(t *testing.T) {
	d := metricSpec{Name: "hls.estimate_us_p50", Unit: "us", Better: "lower"}
	a := []float64{20, 21, 20, 19, 20, 21, 20, 19, 20, 20}
	b := []float64{40, 41, 40, 39, 40, 41, 40, 39, 40, 40}
	if v := verdictOf(t, d, runs("w", d.Name, true, a...), runs("w", d.Name, true, b...)).verdict; v != "regressed" {
		t.Errorf("doubled per-layer time: %s, want regressed", v)
	}
	zero := make([]float64, 10)
	if v := verdictOf(t, d, runs("w", d.Name, true, zero...), runs("w", d.Name, true, zero...)).verdict; v != "unchanged" {
		t.Errorf("layer never called on either side: %s, want unchanged", v)
	}
}

func TestCompareFilesReadsRecordLines(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, v float64) string {
		var b strings.Builder
		for s := 1; s <= 3; s++ {
			b.WriteString(`{"workload":"edit-compile","seed":` + string(rune('0'+s)) +
				`,"trace":false,"metrics":{"op_ms_p50":{"value":` + g(v) + `,"unit":"ms"}}}` + "\n")
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{}}` + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out strings.Builder
	if err := compareFiles(&out, sp, write("a.jsonl", 1), write("b.jsonl", 2)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "op_ms_p50") || !strings.Contains(out.String(), "regressed") {
		t.Errorf("comparison table lacks the regressed op_ms_p50 row:\n%s", out.String())
	}
}
