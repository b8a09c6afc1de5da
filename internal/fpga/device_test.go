package fpga

import (
	"strings"
	"testing"
	"time"
)

func TestVU9PCapacities(t *testing.T) {
	d := VU9P()
	if d.LUT < 1_000_000 || d.DSP != 6840 || d.BRAM18K != 4320 {
		t.Errorf("device capacities off: %+v", d)
	}
	if d.BaseClockMHz != 250 {
		t.Errorf("base clock = %v", d.BaseClockMHz)
	}
	if d.UsableFrac != 0.75 {
		t.Errorf("usable fraction = %v (paper footnote 5 says 75%%)", d.UsableFrac)
	}
}

func TestExecuteOverlapsTransferAndCompute(t *testing.T) {
	d := VU9P()
	d.InvokeOverhead = 0

	// Compute-bound design: transfers hide behind compute.
	compute := &Design{CyclesPerTask: 1000, FreqMHz: 250, BytesPerTask: 8}
	tCompute := d.Execute(compute, 1000)
	wantCompute := time.Duration(1000 * 1000 / (250e6) * float64(time.Second))
	if diff := tCompute - wantCompute; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("compute-bound time = %v, want ~%v", tCompute, wantCompute)
	}

	// Transfer-bound design: PCIe dominates.
	xfer := &Design{CyclesPerTask: 1, FreqMHz: 250, BytesPerTask: 1 << 20}
	tXfer := d.Execute(xfer, 100)
	wantXfer := time.Duration(float64(100<<20) / (d.PCIeGBs * 1e9) * float64(time.Second))
	if diff := tXfer - wantXfer; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("transfer-bound time = %v, want ~%v", tXfer, wantXfer)
	}
}

func TestExecuteIncludesInvokeOverhead(t *testing.T) {
	d := VU9P()
	des := &Design{CyclesPerTask: 1, FreqMHz: 250, BytesPerTask: 1}
	if got := d.Execute(des, 1); got < d.InvokeOverhead {
		t.Errorf("time %v below invocation overhead %v", got, d.InvokeOverhead)
	}
}

func TestExecuteScalesWithTasks(t *testing.T) {
	d := VU9P()
	des := &Design{CyclesPerTask: 100, FreqMHz: 200, BytesPerTask: 64}
	t1 := d.Execute(des, 1000)
	t2 := d.Execute(des, 2000)
	if t2 <= t1 {
		t.Errorf("doubling tasks did not increase time: %v -> %v", t1, t2)
	}
}

func TestExecuteZeroFreq(t *testing.T) {
	d := VU9P()
	if got := d.Execute(&Design{}, 10); got != 0 {
		t.Errorf("zero-frequency design time = %v", got)
	}
}

func TestDeviceString(t *testing.T) {
	if s := VU9P().String(); !strings.Contains(s, "vu9p") || !strings.Contains(s, "250") {
		t.Errorf("String = %q", s)
	}
}
