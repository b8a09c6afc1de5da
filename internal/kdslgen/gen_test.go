package kdslgen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"s2fa/internal/absint"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
	"s2fa/internal/kdsl"
)

// toVal packs a task into the jvmsim input shape: one field is passed
// bare, several as a tuple.
func toVal(task []FieldVal) jvmsim.Val {
	fs := make([]jvmsim.Val, len(task))
	for i, f := range task {
		if f.IsArr {
			fs[i] = jvmsim.Array(append([]cir.Value(nil), f.Arr...))
		} else {
			fs[i] = jvmsim.Scalar(f.S)
		}
	}
	if len(fs) == 1 {
		return fs[0]
	}
	return jvmsim.Tuple(fs...)
}

// sameValue compares two cir values bit-exactly (NaNs of equal payload
// compare equal; +0 and -0 do not).
func sameValue(a, b cir.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K.IsFloat() {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a.I == b.I
}

func sameResult(ref FieldVal, got jvmsim.Val) bool {
	if ref.IsArr != got.IsArr || got.IsTup {
		return false
	}
	if !ref.IsArr {
		return sameValue(ref.S, got.S)
	}
	if len(ref.Arr) != len(got.Arr) {
		return false
	}
	for i := range ref.Arr {
		if !sameValue(ref.Arr[i], got.Arr[i]) {
			return false
		}
	}
	return true
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 40)
	b := Generate(42, 40)
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("kernel %d differs between identical Generate calls", i)
		}
	}
	// Kernel i must not depend on n.
	pre := Generate(42, 10)
	for i := range pre {
		if pre[i].Source != a[i].Source {
			t.Fatalf("kernel %d differs between n=10 and n=40", i)
		}
	}
	// A different seed must actually change the population.
	c := Generate(43, 40)
	diff := 0
	for i := range a {
		if a[i].Source != c[i].Source {
			diff++
		}
	}
	if diff == 0 {
		t.Fatalf("seed 43 produced the same 40 kernels as seed 42")
	}
	// All families appear in any prefix of >= 8 kernels.
	fams := map[string]bool{}
	for _, k := range a[:8] {
		fams[k.Tags[0]] = true
	}
	if len(fams) != 8 {
		t.Fatalf("first 8 kernels cover %d families, want 8: %v", len(fams), fams)
	}
}

func TestGeneratedKernelsCompileAndVerify(t *testing.T) {
	for _, k := range Generate(7, 64) {
		cls, err := kdsl.CompileSource(k.Source)
		if err != nil {
			t.Fatalf("%s (%v) does not compile: %v\n%s", k.Name, k.Tags, err, k.Source)
		}
		if err := bytecode.VerifyClass(cls); err != nil {
			t.Fatalf("%s: bytecode fails verification: %v\n%s", k.Name, err, k.Source)
		}
		facts, err := absint.AnalyzeClass(cls)
		if err != nil {
			t.Fatalf("%s: absint: %v", k.Name, err)
		}
		if !facts.Pure() {
			t.Fatalf("%s: generated kernel reported impure\n%s", k.Name, k.Source)
		}
		if v := facts.Violations(); len(v) > 0 {
			t.Fatalf("%s: generated kernel has §3.3 violations %v\n%s", k.Name, v, k.Source)
		}
	}
}

func TestReferenceAgreesWithJVM(t *testing.T) {
	kernels := Generate(3, 48)
	rng := rand.New(rand.NewSource(99))
	for _, k := range kernels {
		cls, err := kdsl.CompileSource(k.Source)
		if err != nil {
			t.Fatalf("%s: %v\n%s", k.Name, err, k.Source)
		}
		vm := jvmsim.New(cls)
		var outs []FieldVal
		for task := 0; task < 3; task++ {
			in := k.NewTask(rng)
			want, err := k.Eval(in)
			if err != nil {
				t.Fatalf("%s: reference eval: %v\n%s", k.Name, err, k.Source)
			}
			got, err := vm.Call(toVal(in))
			if err != nil {
				t.Fatalf("%s: jvm: %v\n%s", k.Name, err, k.Source)
			}
			if !sameResult(want, got) {
				t.Fatalf("%s: jvm result %+v != reference %+v\n%s", k.Name, got, want, k.Source)
			}
			outs = append(outs, want)
		}
		if k.HasReduce() {
			want, err := k.EvalReduce(outs[0], outs[1])
			if err != nil {
				t.Fatalf("%s: reference reduce: %v", k.Name, err)
			}
			// toVal copies arrays, so the combiner's in-place
			// accumulation cannot corrupt the reference outputs.
			got, err := vm.Reduce(toVal(outs[0:1]), toVal(outs[1:2]))
			if err != nil {
				t.Fatalf("%s: jvm reduce: %v", k.Name, err)
			}
			if !sameResult(want, got) {
				t.Fatalf("%s: jvm reduce %+v != reference %+v", k.Name, got, want)
			}
		}
	}
}

func TestNegatives(t *testing.T) {
	negs := GenerateNegatives(5, 2*len(negTemplates))
	stages := map[Reject]int{}
	for _, n := range negs {
		stages[n.Stage]++
		switch n.Stage {
		case RejectParse, RejectCheck:
			// Which frontend stage rejects the case is pinned by kdsl's
			// TestGeneratedNegativesRejectAtTheirStage.
			if _, err := kdsl.CompileSource(n.Source); err == nil {
				t.Fatalf("%s (%s) compiled but must not:\n%s", n.Name, n.Why, n.Source)
			}
		case RejectPurity:
			cls, err := kdsl.CompileSource(n.Source)
			if err != nil {
				t.Fatalf("%s (%s) must compile, got %v:\n%s", n.Name, n.Why, err, n.Source)
			}
			facts, err := absint.AnalyzeClass(cls)
			if err != nil {
				t.Fatalf("%s: absint: %v", n.Name, err)
			}
			if facts.Pure() {
				t.Fatalf("%s (%s) reported pure but mutates its input:\n%s", n.Name, n.Why, n.Source)
			}
			// The JVM executes it fine, and the reference semantics
			// (aliasing binds) agree, mutated inputs and all.
			rng := rand.New(rand.NewSource(17))
			in := n.Kernel.NewTask(rng)
			inCopy := make([]FieldVal, len(in))
			for i, f := range in {
				inCopy[i] = FieldVal{S: f.S, Arr: append([]cir.Value(nil), f.Arr...), IsArr: f.IsArr}
			}
			want, err := n.Kernel.Eval(in)
			if err != nil {
				t.Fatalf("%s: reference eval: %v", n.Name, err)
			}
			got, err := jvmsim.New(cls).Call(toVal(inCopy))
			if err != nil {
				t.Fatalf("%s: jvm: %v", n.Name, err)
			}
			if !sameResult(want, got) {
				t.Fatalf("%s: jvm %+v != reference %+v\n%s", n.Name, got, want, n.Source)
			}
		}
	}
	if stages[RejectParse] == 0 || stages[RejectCheck] == 0 || stages[RejectPurity] == 0 {
		t.Fatalf("negative population misses a stage: %v", stages)
	}
}

func TestNegativesDeterministic(t *testing.T) {
	a := GenerateNegatives(5, 11)
	b := GenerateNegatives(5, 11)
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("negative %d differs between identical calls", i)
		}
	}
}

func TestRenderedSourceStyle(t *testing.T) {
	for _, k := range Generate(1, 16) {
		if !strings.Contains(k.Source, "extends Accelerator[") {
			t.Fatalf("%s: missing Accelerator header:\n%s", k.Name, k.Source)
		}
		if !strings.Contains(k.Source, `val id: String = "`+k.ID+`"`) {
			t.Fatalf("%s: id %q not rendered:\n%s", k.Name, k.ID, k.Source)
		}
	}
}
