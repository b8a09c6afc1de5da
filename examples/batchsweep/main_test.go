package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestBatchSweep runs the example and checks it printed the design, one
// row per batch size, and the crossover verdict.
func TestBatchSweep(t *testing.T) {
	wantLines(t, runMain(t),
		`^AES design: `,
		`^ +16384 +\S+ +\S+ +[0-9.]+x$`,
		`^offloading pays off from roughly [0-9]+ tasks per batch$`)
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
