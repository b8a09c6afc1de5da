package hls

import (
	"testing"

	"s2fa/internal/cir"
	"s2fa/internal/fpga"
)

// streamKernel builds a map kernel whose task copies A[t*64+i] + B[t*64+i]
// into out[t*64+i]: three burst-stageable Int buffers of 256 bytes per
// task each, so the channel floor is 768/32 = 24 cycles per task.
func streamKernel() *cir.Kernel {
	iv := func(n string) *cir.VarRef { return &cir.VarRef{K: cir.Int, Name: n} }
	lit := func(v int64) *cir.IntLit { return &cir.IntLit{K: cir.Int, Val: v} }
	at := func(arr string) *cir.Index {
		return &cir.Index{K: cir.Int, Arr: arr, Idx: &cir.Binary{K: cir.Int, Op: cir.Add,
			L: &cir.Binary{K: cir.Int, Op: cir.Mul, L: iv("_task"), R: lit(64)}, R: iv("i")}}
	}
	inner := &cir.Loop{ID: "L1", Var: "i", Lo: lit(0), Hi: lit(64), Step: 1, Body: cir.Block{&cir.Assign{
		LHS: at("out"), RHS: &cir.Binary{K: cir.Int, Op: cir.Add, L: at("A"), R: at("B")},
	}}}
	return &cir.Kernel{
		Name:       "STREAM_kernel",
		TaskLoopID: "L0",
		Params: []cir.Param{
			{Name: "A", Elem: cir.Int, IsArray: true, Length: 64},
			{Name: "B", Elem: cir.Int, IsArray: true, Length: 64},
			{Name: "out", Elem: cir.Int, IsArray: true, Length: 64, IsOutput: true},
		},
		Body: cir.Block{&cir.Loop{ID: "L0", Var: "_task", Lo: lit(0), Hi: iv("N"), Step: 1, Body: cir.Block{inner}}},
	}
}

// TestSaturatesNeedsBothConditions checks each half of the dominance
// test on its own: a port saturates only when the interfaces together
// fill the 32 B/cycle channel and the port itself streams its 256 bytes
// per task within the 24-cycle channel floor.
func TestSaturatesNeedsBothConditions(t *testing.T) {
	wm := Analyze(streamKernel()).WidthModel(fpga.VU9P())
	const a, b = 0, 1
	for _, tc := range []struct {
		name   string
		widths []int
		i      int
		want   bool
	}{
		// 32+2+2 bytes per cycle fill the channel; A streams in 8 cycles.
		{"wide port under the floor", []int{256, 16, 16}, a, true},
		// The channel is full, but B needs 128 cycles at 2 bytes each.
		{"narrow port above the floor", []int{256, 16, 16}, b, false},
		// 16+2+2 bytes per cycle leave the channel idle part of the time.
		{"channel not filled", []int{128, 16, 16}, a, false},
		// 32 bytes per cycle exactly fill it.
		{"channel exactly filled", []int{128, 64, 64}, a, true},
	} {
		if got := wm.Saturates(tc.widths, tc.i); got != tc.want {
			t.Errorf("%s: Saturates(%v, %d) = %v, want %v", tc.name, tc.widths, tc.i, got, tc.want)
		}
	}
}
