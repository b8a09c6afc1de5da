package main

import (
	"io"
	"os"
	"regexp"
	"testing"
)

// TestKMeansDSE runs the example and checks it printed both searches'
// summaries and the QoR comparison.
func TestKMeansDSE(t *testing.T) {
	wantLines(t, runMain(t),
		`^partition 0: `,
		`^S2FA: +best \S+s after [0-9]+ min \([0-9]+ evaluations\)$`,
		`^vanilla: best \S+s after 240 min \([0-9]+ evaluations\)$`,
		`^S2FA best design: `,
		`^final QoR ratio \(vanilla/S2FA\): [0-9.]+x`)
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
