package exp

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/jvmsim"
)

var updateBaseline = flag.Bool("update", false, "rewrite testdata/jvm_baseline.golden")

// baselineCounts runs the sample batch JVMSecondsForEngine runs for the
// app, sharded as it shards it, and returns the summed Counts.
func baselineCounts(t *testing.T, a *apps.App, jit bool) jvmsim.Counts {
	t.Helper()
	cls, err := a.Class()
	if err != nil {
		t.Fatal(err)
	}
	tasks := sampleTasks(a, a.Tasks)
	c, err := runBaseline(cls, tasks, jit, baselineShards(cls, jit, len(tasks)))
	if err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	return c
}

func fmtG(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// TestJVMBaselineGolden pins the JVM baseline every Fig. 4 speedup is
// normalized against: for all twelve apps, on both engines, every Counts
// field of the sample batch and the modeled JVMSeconds, plus the seed-1
// Fig. 4 S2FA and manual speedups. Any change to how the baseline is
// executed (engine internals, batching, sharding) must leave this file
// byte-identical.
func TestJVMBaselineGolden(t *testing.T) {
	const path = "testdata/jvm_baseline.golden"
	var b strings.Builder
	for _, a := range apps.All() {
		for _, jit := range []bool{true, false} {
			c := baselineCounts(t, a, jit)
			sec, err := JVMSecondsForEngine(a, a.Tasks, jit, nil)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s jit=%v alu=%d fpalu=%d array=%d bytearray=%d field=%d allocs=%d branches=%d intrins=%d loadstore=%d invokes=%d jvm_seconds=%s\n",
				a.Name, jit, c.ALU, c.FpALU, c.ArrayOps, c.ByteArrayOps, c.FieldOps, c.Allocs,
				c.Branches, c.Intrins, c.LoadStore, c.Invokes, fmtG(sec))
		}
	}
	f4, err := Fig4(sharedSuite(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f4.Rows {
		fmt.Fprintf(&b, "fig4 seed=1 %s jvm_seconds=%s s2fa=%s manual=%s\n",
			row.App, fmtG(row.JVMSeconds), fmtG(row.S2FASpeedup), fmtG(row.ManualSpeedup))
	}
	got := b.String()
	if *updateBaseline {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("JVM baseline drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}
