package kdsl_test

import (
	"testing"

	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
)

// TestDiagnosticsExact pins frontend error messages byte-for-byte:
// the `kdsl: line:col: text` shape, the exact position (1-based, the
// offending token, not the end of the statement), and the error class.
// The stage column additionally asserts which phase rejects — parse
// errors must come from Parse, checker errors only after a clean parse —
// so a refactor can't silently move a diagnostic across the boundary.
// These strings reach users verbatim through the CLI, and kdslgen's
// negative corpus is tagged by the same classes; drift here is an
// interface change, not a cosmetic one.
func TestDiagnosticsExact(t *testing.T) {
	cases := []struct {
		name  string
		stage string // "parse" or "check"
		src   string
		want  string
	}{
		{
			name:  "unbalanced paren",
			stage: "parse",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = { (in + 1 }\n}",
			want:  `kdsl: 3:38: expected ")", found "}"`,
		},
		{
			name:  "not a class",
			stage: "parse",
			src:   "klass K {}",
			want:  `kdsl: 1:1: expected "class", found "klass"`,
		},
		{
			name:  "illegal character",
			stage: "parse",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = { in $ 2 }\n}",
			want:  `kdsl: 3:33: unexpected character '$'`,
		},
		{
			name:  "narrowing initializer",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = {\n    val x: Int = 1.5\n    x\n  }\n}",
			want:  `kdsl: 4:5: cannot initialize x (Int) with Double`,
		},
		{
			name:  "assign to val",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = {\n    val x: Int = 3\n    x = 4\n    x\n  }\n}",
			want:  `kdsl: 5:5: cannot assign to val x`,
		},
		{
			name:  "assign to parameter",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = {\n    in = 2\n    in\n  }\n}",
			want:  `kdsl: 4:5: cannot assign to parameter in`,
		},
		{
			name:  "undefined name",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = {\n    y + 1\n  }\n}",
			want:  `kdsl: 4:5: undefined: y`,
		},
		{
			name:  "non-boolean while",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = {\n    while (in) { val q: Int = 0 }\n    in\n  }\n}",
			want:  `kdsl: 4:12: while condition must be Boolean`,
		},
		{
			name:  "array input without inSizes",
			stage: "check",
			src:   "class K extends Accelerator[Array[Int], Int] {\n  val id: String = \"k\"\n  def call(in: Array[Int]): Int = {\n    in(0)\n  }\n}",
			want:  "kdsl: 1:1: class K has array inputs: declare the data layout template `val inSizes: Array[Int] = Array(...)` (S2FA class template, paper §3.3)",
		},
		{
			name:  "float shift operand",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Int = {\n    val f: Double = 2.0\n    val s: Int = (1 << f)\n    s\n  }\n}",
			want:  `kdsl: 5:21: << needs integer operands`,
		},
		{
			name:  "call result type mismatch",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def call(in: Int): Double = {\n    in.toDouble\n  }\n}",
			want:  `kdsl: 3:3: call must return the Accelerator output type Int`,
		},
		{
			name:  "extra method",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  val id: String = \"k\"\n  def helper(x: Int): Int = { x }\n  def call(in: Int): Int = { in }\n}",
			want:  `kdsl: 3:3: unsupported method "helper": S2FA kernels define call and optionally reduce`,
		},
		{
			name:  "missing id",
			stage: "check",
			src:   "class K extends Accelerator[Int, Int] {\n  def call(in: Int): Int = { in }\n}",
			want:  "kdsl: 1:1: class K must declare `val id: String = \"...\"`-style accelerator identifier",
		},
		{
			name:  "assign to reduce parameter",
			stage: "check",
			src:   "class K extends Accelerator[Int, Double] {\n  val id: String = \"k\"\n  def call(in: Int): Double = { in.toDouble }\n  def reduce(a: Double, b: Double): Double = {\n    a = a + b\n    a\n  }\n}",
			want:  `kdsl: 5:5: cannot assign to parameter a`,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			def, perr := kdsl.Parse(tc.src)
			if tc.stage == "parse" {
				if perr == nil {
					t.Fatal("parse accepted, want rejection")
				}
				if perr.Error() != tc.want {
					t.Errorf("parse error\n got %s\nwant %s", perr, tc.want)
				}
				return
			}
			if perr != nil {
				t.Fatalf("checker case failed at parse: %v", perr)
			}
			_, cerr := kdsl.Compile(def)
			if cerr == nil {
				t.Fatal("checker accepted, want rejection")
			}
			if cerr.Error() != tc.want {
				t.Errorf("checker error\n got %s\nwant %s", cerr, tc.want)
			}
			// CompileSource is the public one-shot entry; it must surface
			// the identical diagnostic.
			if _, err := kdsl.CompileSource(tc.src); err == nil || err.Error() != tc.want {
				t.Errorf("CompileSource error\n got %v\nwant %s", err, tc.want)
			}
		})
	}
}

// TestGeneratedNegativesRejectAtTheirStage holds kdslgen's negative
// corpus to the same stage boundary: a RejectParse case fails Parse, and
// a RejectCheck case parses cleanly and then fails Compile. The first
// 64 negatives cycle through every template several times.
func TestGeneratedNegativesRejectAtTheirStage(t *testing.T) {
	stages := map[kdslgen.Reject]int{}
	for _, n := range kdslgen.GenerateNegatives(5, 64) {
		stages[n.Stage]++
		switch n.Stage {
		case kdslgen.RejectParse:
			if _, err := kdsl.Parse(n.Source); err == nil {
				t.Fatalf("%s (%s) parsed but must not:\n%s", n.Name, n.Why, n.Source)
			}
		case kdslgen.RejectCheck:
			cls, err := kdsl.Parse(n.Source)
			if err != nil {
				t.Fatalf("%s (%s) must parse, got %v:\n%s", n.Name, n.Why, err, n.Source)
			}
			if _, err := kdsl.Compile(cls); err == nil {
				t.Fatalf("%s (%s) compiled but must not:\n%s", n.Name, n.Why, n.Source)
			}
		}
	}
	if stages[kdslgen.RejectParse] == 0 || stages[kdslgen.RejectCheck] == 0 {
		t.Fatalf("negative population misses a frontend stage: %v", stages)
	}
}
