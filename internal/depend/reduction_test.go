package depend

import (
	"testing"

	"s2fa/internal/cir"
)

func TestReductionForm(t *testing.T) {
	s := vref("s")
	if acc, _, ok := ReductionForm(loop("L1", "i", 0, 8,
		&cir.Assign{LHS: s, RHS: add(s, idx("in", vref("i")))},
	)); !ok || acc != "s" {
		t.Errorf("canonical reduction not recognized: acc=%q ok=%v", acc, ok)
	}

	// Commuted operand order also matches.
	if _, _, ok := ReductionForm(loop("L1", "i", 0, 8,
		&cir.Assign{LHS: s, RHS: add(idx("in", vref("i")), s)},
	)); !ok {
		t.Error("commuted reduction not recognized")
	}

	// A second read of the accumulator disqualifies it.
	if _, _, ok := ReductionForm(loop("L1", "i", 0, 8,
		&cir.Assign{LHS: s, RHS: add(s, idx("in", vref("i")))},
		&cir.Assign{LHS: idx("out", intLit(0)), RHS: s},
	)); ok {
		t.Error("reduction with extra accumulator use accepted")
	}

	// Multiplicative recurrences are not additive reductions.
	if _, _, ok := ReductionForm(loop("L1", "i", 0, 8,
		&cir.Assign{LHS: s, RHS: mul(s, intLit(2))},
	)); ok {
		t.Error("multiplicative recurrence accepted as reduction")
	}
}
