package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestSmithWaterman runs the example and checks it built the design and
// that every alignment matched the JVM's.
func TestSmithWaterman(t *testing.T) {
	wantLines(t, runMain(t),
		`^chosen design: `,
		`^DSE: [0-9]+ evaluations, [0-9]+ virtual minutes, [0-9]+ partitions$`,
		`^aligned 256 pairs on the accelerator`,
		`^verification: 256/256 alignments identical to the JVM execution$`)
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
