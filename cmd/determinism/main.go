// Command determinism lints the DSE/HLS/tuner hot paths for constructs
// that break run-to-run reproducibility (wall-clock reads, the global
// math/rand generator, map iteration order). It is the CI entry point
// for internal/analyzers/determinism; run it from the repository root:
//
//	go run ./cmd/determinism             # lint the default hot paths
//	go run ./cmd/determinism ./internal/foo ...
//
// Exit status 1 when any finding survives its allow-annotations.
package main

import (
	"fmt"
	"os"
	"strings"

	"s2fa/internal/analyzers/determinism"
)

// hotPaths are the packages whose outputs must be pure functions of
// (kernel, configuration, seed).
var hotPaths = []string{
	"internal/access",
	"internal/ccache",
	"internal/compile",
	"internal/depend",
	"internal/dse",
	"internal/hls",
	"internal/merlin",
	"internal/obs",
	"internal/space",
	"internal/tuner",
}

func main() {
	targets := hotPaths
	if args := os.Args[1:]; len(args) > 0 {
		targets = nil
		for _, a := range args {
			targets = append(targets, strings.TrimPrefix(a, "./"))
		}
	}
	findings, err := determinism.Check(".", targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "determinism:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "determinism: %d finding(s) in %s\n", len(findings), strings.Join(targets, ", "))
		os.Exit(1)
	}
	fmt.Printf("determinism: %s clean\n", strings.Join(targets, ", "))
}
