package hls

import (
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
)

// The interface-width model. A buffer's bit-width directive reaches a
// report in exactly three places, all computed by the functions the
// estimator itself uses: the BRAM/LUT lanes of its staging buffer
// (ifaceLanes, area), the aggregate burst throughput of an unpipelined
// task loop (interfaceBytesPerCycle, which the sequential fallback of a
// pipelined task loop pays too), and the per-port memory initiation
// interval of a pipelined or flattened task loop (memCycles, whose
// binding port also names a port-contention bottleneck site).

// portWidths returns each parameter's interface width, indexed like
// k.Params: the bit-width directive of an array parameter, or its
// element width without one; 0 for scalars.
func portWidths(k *cir.Kernel) []int {
	w := make([]int, len(k.Params))
	for i, p := range k.Params {
		if !p.IsArray {
			continue
		}
		w[i] = p.BitWidth
		if w[i] == 0 {
			w[i] = p.Elem.Bits()
		}
	}
	return w
}

// ifaceLanes is the number of parallel BRAM lanes (and AXI datapaths) a
// w-bit interface occupies.
func ifaceLanes(w int) int {
	return maxInt(1, w/72)
}

// WidthModel answers, for one kernel, which interface widths the
// estimator cannot tell apart and which it prices no better than a
// narrower one. It shares the estimator's width model rather than
// mirroring it, so a width it calls equivalent yields a bit-identical
// report.
type WidthModel struct {
	m      *model
	widths []int
}

// WidthModel returns the width model of the analyzed kernel on device
// dev. Bit-width and loop directives do not change the access profile
// it reads, so the model of the unannotated kernel holds for every
// design point.
func (a *Analysis) WidthModel(dev *fpga.Device) *WidthModel {
	return &WidthModel{m: &model{Analysis: a, dev: dev}, widths: portWidths(a.kernel)}
}

// Widths returns a fresh copy of the kernel's interface widths before
// any bit-width directive, indexed like k.Params; callers overwrite the
// entries their design point sets and pass the slice to Equivalent.
func (e *WidthModel) Widths() []int {
	return append([]int(nil), e.widths...)
}

// Saturates reports whether parameter i's width widths[i] already makes
// any wider value of it dominated, given the other interfaces' widths
// (indexed like k.Params). Two conditions must hold. The aggregate
// interface throughput reaches the DDR channel cap, so unpipelined burst
// transfers see the cap either way. And parameter i's own port, at one
// task-loop lane, streams its per-task payload (its staged footprint;
// nothing for a gather-only buffer) no slower than the channel floor, so
// the port never binds the memory initiation interval. Widening any one
// port keeps both true, while its BRAM/LUT lanes only grow.
func (e *WidthModel) Saturates(widths []int, i int) bool {
	if e.m.interfaceBytesPerCycle(widths) < float64(e.m.dev.DDRBytesPerCycle) {
		return false
	}
	p := &e.m.kernel.Params[i]
	if e.m.gatherOnly(p) != nil {
		return true
	}
	_, floor, _ := e.m.memCycles(widths, 1)
	bytes := e.m.stagedElems(p) * float64(p.Elem.Bits()) / 8
	return bytes/(float64(widths[i])/8) <= floor
}

// Equivalent reports whether a design whose interfaces have the given
// widths (indexed like k.Params) and whose task loop has pipeline mode
// pipe estimates identically with parameter i at width w1 and at width
// w2; widths[i] itself is ignored and left as it was. The memory terms
// are evaluated at one task-loop lane: every term scales linearly with
// the lane count and is computed exactly (power-of-two widths and
// channel), so one lane decides every lane count.
func (e *WidthModel) Equivalent(widths []int, pipe cir.PipelineMode, i, w1, w2 int) bool {
	if ifaceLanes(w1) != ifaceLanes(w2) {
		return false
	}
	orig := widths[i]
	widths[i] = w1
	bpc1 := e.m.interfaceBytesPerCycle(widths)
	port1, agg, bind1 := e.m.memCycles(widths, 1)
	widths[i] = w2
	bpc2 := e.m.interfaceBytesPerCycle(widths)
	port2, _, bind2 := e.m.memCycles(widths, 1)
	widths[i] = orig
	if pipe != cir.PipeFlatten && bpc1 != bpc2 {
		return false
	}
	if pipe != cir.PipeOff {
		// A port binds the memory II only above the channel floor; then
		// its cycles and its identity (the bottleneck site) must agree.
		if (port1 > agg) != (port2 > agg) {
			return false
		}
		if port1 > agg && (port1 != port2 || bind1 != bind2) {
			return false
		}
	}
	return true
}
