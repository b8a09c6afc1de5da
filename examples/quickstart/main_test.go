package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestQuickstart runs the example and checks it chose a design, ran the
// job on the FPGA path, and got the JVM's answers on every task.
func TestQuickstart(t *testing.T) {
	wantLines(t, runMain(t),
		`^design space: \S+ points; DSE evaluated [0-9]+ designs`,
		`^chosen design: `,
		`^FPGA path: usedFPGA=true tasks=2048 `,
		`^result check: 2048/2048 tasks agree between FPGA and JVM paths$`,
		`^modeled speedup: [0-9.]+x$`)
}

// runMain runs main with stdout captured and returns what it printed.
func runMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	main()
	w.Close()
	return <-printed
}

// wantLines fails t for every pattern no line of out matches.
func wantLines(t *testing.T, out string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)` + p).MatchString(out) {
			t.Errorf("output has no line matching %q:\n%s", p, out)
		}
	}
}
