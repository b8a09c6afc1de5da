package deadapi

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture runs the check over testdata/mod, a small module with one
// exported declaration per case: each finding must name exactly the
// declarations nothing outside tests uses, and every other case must
// stay silent.
func TestFixture(t *testing.T) {
	findings, scanned, err := Check(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range findings {
		if !strings.HasSuffix(f.Pos.Filename, filepath.Join("internal", "p", "p.go")) || f.Pos.Line == 0 {
			t.Errorf("finding %v is not positioned in internal/p/p.go", f)
		}
		got[f.Name] = f.Detail
	}
	want := map[string]string{
		"p.Unused":     "exported func used by no non-test code",
		"p.T.TestOnly": "exported method used by no non-test code",
		"p.TestType":   "exported type used by no non-test code",
		"p.Unused2":    "exported const used by no non-test code",
		"p.NoReason":   "api:allow needs a reason",
		"p.Stale":      "stale api:allow",
	}
	for name, prefix := range want {
		if d, ok := got[name]; !ok {
			t.Errorf("%s not flagged", name)
		} else if !strings.HasPrefix(d, prefix) {
			t.Errorf("%s: detail %q, want prefix %q", name, d, prefix)
		}
	}
	for name, d := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s flagged but used (%s)", name, d)
		}
	}
	// T, String, Area, Shape, TestOnly, TestType, Unused, Qualified,
	// Aliased, InPackage, BenchOnly, Oracle, NoReason, Stale, Limit,
	// Unused2; nothing from cmd/ or perfbench/.
	if scanned != 16 {
		t.Errorf("scanned %d exported declarations, want 16", scanned)
	}
}

// TestFindingFormat pins the file:line prefix editors and CI logs link.
func TestFindingFormat(t *testing.T) {
	findings, _, err := Check(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Name != "p.Unused" {
			continue
		}
		want := filepath.Join("testdata", "mod", "internal", "p", "p.go") + ":23: p.Unused: exported func"
		if s := f.String(); !strings.HasPrefix(s, want) {
			t.Fatalf("String() = %q, want prefix %q", s, want)
		}
		return
	}
	t.Fatal("p.Unused not flagged")
}

func TestMissingGoMod(t *testing.T) {
	if _, _, err := Check(t.TempDir()); err == nil {
		t.Fatal("a root without go.mod must be an error")
	}
}
