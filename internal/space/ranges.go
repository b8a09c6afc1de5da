package space

import (
	"s2fa/internal/cir"
	"s2fa/internal/fpga"
)

// RestrictFromRanges returns a copy of s with range-dominated interface
// bit-width values removed, plus the number of domain values dropped
// (Table 1's per-buffer 8 < 2^n <= 512 domains shrink; everything else is
// untouched). A width W is dominated by a smaller in-domain width W' for
// buffer p when widening past W' provably cannot improve the design:
//
//   - streaming p's per-task payload at W' already takes no longer than
//     the aggregate DDR floor (totalBytes / DDRBytesPerCycle), so the
//     memory initiation interval of pipelined task loops is set by the
//     channel, not by p's port; and
//   - the interface aggregate already saturates the DDR channel even with
//     every other buffer at its narrowest domain width, so unpipelined
//     burst transfers see the channel cap either way;
//
// while the wider port still pays monotonically more area (BRAM/LUT lanes
// grow with width). The rule only fires for buffers whose value range the
// abstract interpreter proved (Param.ValKnown): the proof certifies the
// buffer's traffic model — every element is a genuine payload element, so
// per-task bytes are exactly Length x element bytes and the dominance
// argument is closed. Like PruneStatic, callers may apply the returned
// space or use the count alone (the DSE reports it without changing the
// search trajectory).
func RestrictFromRanges(s *Space, dev *fpga.Device) (*Space, int) {
	if dev == nil || s.Kernel == nil {
		return s, 0
	}
	k := s.Kernel
	cap := float64(dev.DDRBytesPerCycle)
	if cap <= 0 {
		return s, 0
	}

	// Aggregate DDR floor cycles per task batch unit (the task-loop
	// parallel factor scales payload and floor alike, so it cancels).
	// Reduce-mode outputs are task-invariant accumulators excluded from
	// per-task traffic, matching the HLS estimator's memory model.
	var totalBytes float64
	for _, p := range k.Params {
		if !p.IsArray || (p.IsOutput && k.Pattern == cir.PatternReduce) {
			continue
		}
		totalBytes += float64(p.Length) * float64(p.Elem.Bits()) / 8
	}
	floorCycles := totalBytes / cap

	// Narrowest-possible aggregate contribution of each width parameter,
	// kept in Params order so the float sums below add in a fixed order.
	type bufWidth struct {
		buffer string
		min    int
	}
	var minWidths []bufWidth
	for i := range s.Params {
		p := &s.Params[i]
		if p.Kind == FactorBitWidth && p.Size() > 0 {
			minWidths = append(minWidths, bufWidth{p.Buffer, p.ValueAt(0)})
		}
	}

	var cons []Constraint
	removed := 0
	for i := range s.Params {
		sp := &s.Params[i]
		if sp.Kind != FactorBitWidth {
			continue
		}
		buf := k.Param(sp.Buffer)
		if buf == nil || !buf.ValKnown {
			continue
		}
		bytes := float64(buf.Length) * float64(buf.Elem.Bits()) / 8
		othersMin := 0.0
		for _, m := range minWidths {
			if m.buffer != sp.Buffer {
				othersMin += float64(m.min) / 8
			}
		}
		// Find the smallest saturating width: every larger domain value is
		// dominated by it.
		satOrd := -1
		for ord := 0; ord < sp.Size(); ord++ {
			w := float64(sp.ValueAt(ord))
			if bytes/(w/8) <= floorCycles && othersMin+w/8 >= cap {
				satOrd = ord
				break
			}
		}
		if satOrd < 0 || satOrd == sp.Size()-1 {
			continue
		}
		removed += sp.Size() - 1 - satOrd
		cons = append(cons, Constraint{Param: sp.Name, LoOrd: 0, HiOrd: satOrd})
	}
	if removed == 0 {
		return s, 0
	}
	out, err := Restrict(s, cons)
	if err != nil {
		return s, 0
	}
	return out, removed
}
