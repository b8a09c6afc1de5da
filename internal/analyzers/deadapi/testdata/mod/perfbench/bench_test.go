package perfbench

import (
	"testing"

	"fix/internal/p"
)

func TestBenchOnly(t *testing.T) {
	if p.BenchOnly() != 4 {
		t.Fatal("fixture")
	}
}
