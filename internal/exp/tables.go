package exp

import (
	"fmt"
	"strings"

	"s2fa/internal/apps"
	"s2fa/internal/space"
)

// Table2Row is one row of the paper's Table 2: resource utilization and
// achieved clock frequency of the best DSE-generated design per kernel.
type Table2Row struct {
	App     string
	Type    string
	BRAMPct int
	DSPPct  int
	FFPct   int
	LUTPct  int
	FreqMHz int
	// MemoryBound marks kernels whose best design is limited by external
	// memory bandwidth (the paper calls out AES and PR).
	MemoryBound bool
}

// Table2 regenerates Table 2 from the S2FA DSE's best configurations.
func Table2(s *Suite) ([]Table2Row, error) {
	var rows []Table2Row
	for _, name := range apps.Names() {
		r, err := s.Result(name, Modes{})
		if err != nil {
			return nil, err
		}
		rep := r.BestReport
		memBound := float64(rep.Cycles) <= 1.05*float64(rep.BytesPerTask)*float64(r.App.Tasks)/float64(s.Device.DDRBytesPerCycle)
		rows = append(rows, Table2Row{
			App:         name,
			Type:        r.App.Type,
			BRAMPct:     int(rep.UtilBRAM*100 + 0.5),
			DSPPct:      int(rep.UtilDSP*100 + 0.5),
			FFPct:       int(rep.UtilFF*100 + 0.5),
			LUTPct:      int(rep.UtilLUT*100 + 0.5),
			FreqMHz:     int(rep.FreqMHz + 0.5),
			MemoryBound: memBound,
		})
	}
	return rows, nil
}

// RenderTable2 prints the table in the paper's format.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: resource utilization and clock frequency (MHz) of best DSE designs\n")
	fmt.Fprintf(&b, "%-8s %-14s %6s %6s %6s %6s %6s  %s\n", "kernel", "type", "BRAM", "DSP", "FF", "LUT", "freq", "note")
	for _, r := range rows {
		note := ""
		if r.MemoryBound {
			note = "memory-bandwidth bound"
		}
		fmt.Fprintf(&b, "%-8s %-14s %5d%% %5d%% %5d%% %5d%% %6d  %s\n",
			r.App, r.Type, r.BRAMPct, r.DSPPct, r.FFPct, r.LUTPct, r.FreqMHz, note)
	}
	return b.String()
}

// Table1Row summarizes the identified design space of one kernel, the
// content of the paper's Table 1 instantiated per application.
type Table1Row struct {
	App         string
	LoopFactors int // tiling+parallel+pipeline parameters
	Buffers     int // bit-width parameters
	Cardinality float64
}

// Table1 regenerates the design-space summary. The paper highlights that
// the S-W space exceeds a thousand trillion (1e15) points.
func Table1(s *Suite) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range apps.Names() {
		r, err := s.Result(name, Modes{})
		if err != nil {
			return nil, err
		}
		row := Table1Row{App: name, Cardinality: r.Space.Cardinality()}
		for i := range r.Space.Params {
			if r.Space.Params[i].Kind == space.FactorBitWidth {
				row.Buffers++
			} else {
				row.LoopFactors++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable1 prints the design-space summary.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 (instantiated): identified design spaces\n")
	fmt.Fprintf(&b, "%-8s %12s %12s %14s\n", "kernel", "loop factors", "buffer widths", "design points")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %12d %12d %14.3g\n", r.App, r.LoopFactors, r.Buffers, r.Cardinality)
	}
	b.WriteString("(factors per Table 1: bit-width 2^n in (8,512]; tile/parallel in [1, TC); pipeline {off,on,flatten})\n")
	return b.String()
}
