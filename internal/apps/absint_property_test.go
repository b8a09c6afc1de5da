package apps

import (
	"math/rand"
	"testing"

	"s2fa/internal/absint"
	"s2fa/internal/bytecode"
	"s2fa/internal/cir"
	"s2fa/internal/jvmsim"
)

// soundnessChecker asserts, before every interpreted instruction, that
// the concrete frame lies inside the absint-inferred facts: every scalar
// local within its slot summary, every value about to be stored within
// the per-pc store fact, and every array element about to be loaded
// within the per-pc load fact.
type soundnessChecker struct {
	t      *testing.T
	name   string
	facts  *absint.MethodFacts
	failed int
}

const maxSoundnessErrors = 5

func (c *soundnessChecker) hook(m *bytecode.Method, pc int, stack []jvmsim.Val, locals []jvmsim.Val) {
	if m != c.facts.Method || c.failed > maxSoundnessErrors {
		return
	}
	for i, lv := range locals {
		if lv.IsArr || lv.IsTup {
			continue
		}
		if iv := localRange(c.facts, i); !containsValue(iv, lv.S) {
			c.failed++
			c.t.Errorf("%s %s@%d: local %d holds %s outside inferred %v", c.name, m.Name, pc, i, lv.S, iv)
		}
	}
	in := m.Code[pc]
	switch in.Op {
	case bytecode.OpStore, bytecode.OpAStore:
		v := stack[len(stack)-1]
		if v.IsArr || v.IsTup {
			return
		}
		iv, ok := c.facts.Stored[pc]
		if !ok {
			c.failed++
			c.t.Errorf("%s %s@%d: store executed but no fact recorded", c.name, m.Name, pc)
			return
		}
		if !containsValue(iv, v.S) {
			c.failed++
			c.t.Errorf("%s %s@%d: stores %s outside inferred %v", c.name, m.Name, pc, v.S, iv)
		}
	case bytecode.OpALoad:
		idx := stack[len(stack)-1].S.AsInt()
		arr := stack[len(stack)-2]
		if !arr.IsArr || idx < 0 || idx >= int64(len(arr.Arr)) {
			return
		}
		iv, ok := c.facts.Loaded[pc]
		if !ok {
			c.failed++
			c.t.Errorf("%s %s@%d: aload executed but no fact recorded", c.name, m.Name, pc)
			return
		}
		if !containsValue(iv, arr.Arr[idx]) {
			c.failed++
			c.t.Errorf("%s %s@%d: loads %s outside inferred %v", c.name, m.Name, pc, arr.Arr[idx], iv)
		}
	}
}

// localRange is the proven range of local slot in f (Top when the slot
// index is unknown).
func localRange(f *absint.MethodFacts, slot int) absint.Interval {
	if f == nil || slot < 0 || slot >= len(f.Local) {
		return absint.Top()
	}
	return f.Local[slot]
}

// containsValue reports whether the concrete scalar v lies in iv.
func containsValue(iv absint.Interval, v cir.Value) bool {
	if v.K.IsFloat() {
		return iv.Contains(v.F)
	}
	return iv.Contains(float64(v.I))
}

// TestAbsintSoundnessAllWorkloads runs the JVM simulator over generated
// inputs for all eight Table 2 workloads with the differential trace
// hook attached: no concrete value may escape its inferred interval.
func TestAbsintSoundnessAllWorkloads(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			cls, err := a.Class()
			if err != nil {
				t.Fatal(err)
			}
			facts, err := absint.AnalyzeClass(cls)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(42))
			n := 4
			tasks := a.Gen(rng, n)
			vm := jvmsim.New(cls)
			check := &soundnessChecker{t: t, name: a.Name, facts: facts.Call}
			vm.Trace = check.hook
			outs := make([]jvmsim.Val, 0, n)
			for i, task := range tasks {
				out, err := vm.Call(task)
				if err != nil {
					t.Fatalf("task %d: %v", i, err)
				}
				outs = append(outs, out)
			}
			if cls.Reduce != nil {
				rcheck := &soundnessChecker{t: t, name: a.Name, facts: facts.Reduce}
				vm.Trace = rcheck.hook
				acc := outs[0]
				for _, o := range outs[1:] {
					acc, err = vm.Reduce(acc, o)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			// All eight shipped kernels are offloadable: no §3.3
			// violations and pure (fresh outputs, no static mutation).
			if vs := facts.Violations(); len(vs) != 0 {
				t.Errorf("unexpected §3.3 violations: %v", vs)
			}
			if !facts.Pure() {
				t.Errorf("kernel reported impure: %v", facts.Impurities())
			}
		})
	}
}
