package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords returns the record lines of a JSONL file of runs; result
// lines and anything else without a workload are skipped.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

// side summarizes one metric on one workload for one side of a
// comparison.
type side struct {
	q1, med, q3 float64
	n           int
}

func summarize(xs []float64) side {
	q1, m, q3 := quartiles(xs)
	return side{q1, m, q3, len(xs)}
}

// verdictRow is one metric on one workload.
type verdictRow struct {
	workload, metric, unit string
	a, b                   side
	// change is the relative move of the median, positive when the
	// change side is worse.
	change float64
	bound  float64 // 0: per-layer metric, no bound
	wins   int     // paired runs (same seed) the change side won
	pairs  int
	// verdict is improved, unchanged, regressed or unresolved.
	verdict string
}

// compare judges every metric the two sets of runs share, per workload.
// A is the parent, B the change. Runs pair up by seed.
//
//   - A metric whose run-to-run spread (quartile distance over median,
//     on either side) exceeds its bound is unresolved, unless every B
//     run is better than every A run.
//   - Otherwise a median worse by more than the bound is regressed.
//   - A gain counts (improved) only when B wins at least 9 of every 10
//     pairs, ties winning for neither, and the medians differ by more
//     than A's quartile distance. Per-layer metrics, which have no
//     bound, regress by the same rule mirrored.
//   - Anything else is unchanged.
func compare(sp *spec, a, b []record) []verdictRow {
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []record) map[key][]record {
		m := map[key][]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	ga, gb := group(a), group(b)
	var keys []key
	for k := range ga {
		if _, ok := gb[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})
	var rows []verdictRow
	for _, k := range keys {
		decl := sp.EndToEnd
		if k.trace {
			decl = sp.PerLayer
		}
		for _, d := range decl {
			if row, ok := judge(d, ga[k], gb[k]); ok {
				row.workload = k.workload
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func judge(d metricSpec, a, b []record) (verdictRow, bool) {
	values := func(rs []record) (xs []float64, bySeed map[int64]float64) {
		bySeed = map[int64]float64{}
		for _, r := range rs {
			m, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			xs = append(xs, m.Value)
			if _, dup := bySeed[r.Seed]; !dup {
				bySeed[r.Seed] = m.Value
			}
		}
		return xs, bySeed
	}
	xa, pa := values(a)
	xb, pb := values(b)
	if len(xa) == 0 || len(xb) == 0 {
		return verdictRow{}, false
	}
	sign := 1.0 // +1: lower is better
	if d.Better == "higher" {
		sign = -1
	}
	better := func(x, y float64) bool { return sign*x < sign*y } // x better than y
	row := verdictRow{metric: d.Name, unit: d.Unit, a: summarize(xa), b: summarize(xb), bound: d.Bound}
	row.change = relChange(row.a.med, row.b.med) * sign
	for seed, va := range pa {
		if vb, ok := pb[seed]; ok {
			row.pairs++
			if better(vb, va) {
				row.wins++
			}
		}
	}
	allBetter := true
	for _, vb := range xb {
		for _, va := range xa {
			if !better(vb, va) {
				allBetter = false
			}
		}
	}
	spread := math.Max(relSpread(row.a), relSpread(row.b))
	beyondNoise := math.Abs(row.b.med-row.a.med) > row.a.q3-row.a.q1
	pairedWin := func(wins int) bool {
		if row.pairs == 0 {
			return false
		}
		return float64(wins) >= 0.9*float64(row.pairs)
	}
	losses := 0
	for seed, va := range pa {
		if vb, ok := pb[seed]; ok && better(va, vb) {
			losses++
		}
	}
	improved := row.change < 0 && beyondNoise && (pairedWin(row.wins) || (row.pairs == 0 && allBetter))
	switch {
	case d.Bound > 0 && spread > d.Bound:
		row.verdict = "unresolved"
		if allBetter {
			row.verdict = "improved"
		}
	case d.Bound > 0 && row.change > d.Bound:
		row.verdict = "regressed"
	case improved:
		row.verdict = "improved"
	case d.Bound == 0 && row.change > 0 && beyondNoise && pairedWin(losses):
		row.verdict = "regressed"
	default:
		row.verdict = "unchanged"
	}
	return row, true
}

// relChange is (b-a)/|a|, 0 when both are 0.
func relChange(a, b float64) float64 {
	switch {
	case a == b:
		return 0
	case a == 0:
		return math.Copysign(math.Inf(1), b-a)
	}
	return (b - a) / math.Abs(a)
}

// relSpread is the quartile distance as a share of the median.
func relSpread(s side) float64 {
	if s.q3 == s.q1 {
		return 0
	}
	if s.med == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	rows := compare(sp, a, b)
	if len(rows) == 0 {
		return fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tworse by\tbound\twins\tverdict")
	for _, r := range rows {
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, fmtSide(r.a), fmtSide(r.b), r.change*100, bound, r.wins, r.pairs, r.verdict)
	}
	return tw.Flush()
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.med, s.q1, s.q3, s.n)
}
