// Package fpga models the CPU-FPGA platform of the paper's evaluation: an
// Amazon EC2 f1.2xlarge instance with one Xilinx Virtex UltraScale+ VU9P
// card behind PCIe (paper §5.1). It supplies the resource budget the HLS
// estimator checks designs against and the data-movement model used to
// turn kernel cycle counts into end-to-end accelerator execution times.
package fpga

import (
	"fmt"
	"time"
)

// Device describes an FPGA card.
type Device struct {
	Name string
	// Resource capacities.
	LUT     int
	FF      int
	BRAM18K int
	DSP     int
	// BaseClockMHz is the target kernel clock of the platform shell
	// (250 MHz on the F1, paper §5.2).
	BaseClockMHz float64
	// UsableFrac caps how much of each resource a user kernel may occupy;
	// the rest is vendor-provided control logic (paper footnote 5: 75%).
	UsableFrac float64
	// PCIeGBs is the host-to-card DMA bandwidth in GB/s.
	PCIeGBs float64
	// DDRBytesPerCycle is the aggregate off-chip memory bandwidth visible
	// to the kernel, in bytes per kernel clock cycle.
	DDRBytesPerCycle int
	// InvokeOverhead is the fixed per-batch accelerator invocation cost
	// (driver, DMA setup, Blaze task dispatch).
	InvokeOverhead time.Duration
}

// VU9P returns the Virtex UltraScale+ VU9P as configured on the EC2 F1
// (three SLR dies; capacities are the public device totals).
func VU9P() *Device {
	return &Device{
		Name:             "xcvu9p (EC2 F1)",
		LUT:              1_182_240,
		FF:               2_364_480,
		BRAM18K:          4_320,
		DSP:              6_840,
		BaseClockMHz:     250,
		UsableFrac:       0.75,
		PCIeGBs:          10.0,
		DDRBytesPerCycle: 32, // one 512-bit DDR channel at ~50% streaming efficiency
		InvokeOverhead:   120 * time.Microsecond,
	}
}

// Design is a synthesized accelerator design: the outcome of DSE plus
// bitstream generation, ready to execute batches.
type Design struct {
	KernelName string
	// CyclesPerTask is the steady-state kernel cycles consumed per task
	// (total cycles / N for the evaluated batch size).
	CyclesPerTask float64
	// FixedCycles is the pipeline fill/drain and prologue cost per batch.
	FixedCycles float64
	FreqMHz     float64
	// BytesPerTask is the total host<->card traffic per task.
	BytesPerTask int
}

// Execute returns the end-to-end accelerator time for a batch of n tasks:
// PCIe transfer overlapped with compute (Blaze double-buffers transfers),
// plus fixed invocation overhead.
func (d *Device) Execute(des *Design, n int) time.Duration {
	if des.FreqMHz <= 0 {
		return 0
	}
	computeSec := (des.FixedCycles + des.CyclesPerTask*float64(n)) / (des.FreqMHz * 1e6)
	transferSec := float64(des.BytesPerTask) * float64(n) / (d.PCIeGBs * 1e9)
	sec := computeSec
	if transferSec > sec {
		sec = transferSec
	}
	return d.InvokeOverhead + time.Duration(sec*float64(time.Second))
}

func (d *Device) String() string {
	return fmt.Sprintf("%s: %d LUT, %d FF, %d BRAM18K, %d DSP @ %.0f MHz",
		d.Name, d.LUT, d.FF, d.BRAM18K, d.DSP, d.BaseClockMHz)
}
