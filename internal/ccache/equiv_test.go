package ccache

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"s2fa/internal/absint"
	"s2fa/internal/apps"
	"s2fa/internal/b2c"
	"s2fa/internal/cir"
	"s2fa/internal/kdsl"
	"s2fa/internal/kdslgen"
)

var updateOutputs = flag.Bool("update", false, "rewrite testdata/compile_outputs.golden")

const outputsGolden = "testdata/compile_outputs.golden"

// compileCase is one source TestPooledMatchesFresh compiles: a workload,
// a generated kernel, or a generated negative.
type compileCase struct{ name, src string }

func compileCases() []compileCase {
	var cs []compileCase
	for _, a := range apps.All() {
		cs = append(cs, compileCase{a.Name, a.Source})
	}
	for _, k := range kdslgen.Generate(42, 24) {
		cs = append(cs, compileCase{k.Name, k.Source})
	}
	for _, n := range kdslgen.GenerateNegatives(42, 14) {
		cs = append(cs, compileCase{n.Name + "/" + n.Stage.String(), n.Source})
	}
	return cs
}

// compileDigest renders everything a compilation yields that reuse of
// pooled buffers could perturb, as one golden line: the frontend's error
// text verbatim, or a digest of the class fingerprint (canonical
// bytecode plus fact digest) and the generated HLS C.
func compileDigest(c compileCase) string {
	cls, err := kdsl.CompileSource(c.src)
	if err != nil {
		return fmt.Sprintf("%s error: %v", c.name, err)
	}
	facts, err := absint.AnalyzeClass(cls)
	if err != nil {
		return fmt.Sprintf("%s error: %v", c.name, err)
	}
	k, err := b2c.Compile(cls)
	if err != nil {
		return fmt.Sprintf("%s error: %v", c.name, err)
	}
	out := fmt.Sprintf("fingerprint %s\n%s", FingerprintOf(cls, facts), cir.Print(k))
	return fmt.Sprintf("%s %x", c.name, sha256.Sum256([]byte(out)))
}

// TestPooledMatchesFresh checks that compiling through the stages'
// pooled buffers yields exactly what compiling with fresh allocations
// did, on every workload and a seeded sample of generated kernels and
// negatives. The reference is testdata/compile_outputs.golden, recorded
// when every stage still allocated per call. The sources compile
// interleaved (A, B, A), so stale slab, interner or freelist state left
// by a previous kernel would show, and from GOMAXPROCS goroutines at
// once.
func TestPooledMatchesFresh(t *testing.T) {
	cs := compileCases()
	if *updateOutputs {
		var b strings.Builder
		for _, c := range cs {
			b.WriteString(compileDigest(c) + "\n")
		}
		if err := os.WriteFile(outputsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(outputsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(cs) {
		t.Fatalf("%s has %d lines for %d cases", outputsGolden, len(want), len(cs))
	}
	check := func(who string, i int) {
		if got := compileDigest(cs[i]); got != want[i] {
			t.Errorf("%s: got %q, want %q", who, got, want[i])
		}
	}

	for pass, reverse := range []bool{false, true, false} {
		for j := range cs {
			i := j
			if reverse {
				i = len(cs) - 1 - j
			}
			check(fmt.Sprintf("pass %d", pass), i)
		}
	}

	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range cs {
				check(fmt.Sprintf("goroutine %d", g), (j+g*len(cs)/procs)%len(cs))
			}
		}(g)
	}
	wg.Wait()
}
