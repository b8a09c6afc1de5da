// Command deadapi lists the exported declarations of the module's
// internal/ packages that no non-test code uses. It is the CI entry
// point for internal/analyzers/deadapi; run it from the repository root:
//
//	go run ./cmd/deadapi
//
// Exit status 1 when any finding survives its api:allow annotations,
// 2 when the tree cannot be parsed.
package main

import (
	"fmt"
	"os"

	"s2fa/internal/analyzers/deadapi"
)

func main() {
	findings, scanned, err := deadapi.Check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "deadapi: %d finding(s) in %d exported declarations\n", len(findings), scanned)
		os.Exit(1)
	}
	fmt.Printf("deadapi: %d exported declarations in internal/, all used\n", scanned)
}
