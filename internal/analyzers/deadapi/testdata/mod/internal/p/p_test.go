package p

import "testing"

func TestCallers(t *testing.T) {
	var _ TestType
	if (T{}).TestOnly() != 1 || Oracle() != 5 || Unused2 != 9 {
		t.Fatal("fixture")
	}
}
