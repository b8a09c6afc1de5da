package dse

import (
	"math"
	"testing"

	"s2fa/internal/apps"
	"s2fa/internal/fpga"
	"s2fa/internal/hls"
	"s2fa/internal/space"
)

// TestCandidateRulesWellFormed checks every generated rule is a valid
// split: the parameter exists and the threshold ordinal leaves both sides
// non-empty.
func TestCandidateRulesWellFormed(t *testing.T) {
	for _, name := range []string{"KMeans", "S-W", "AES"} {
		a := apps.Get(name)
		k, err := a.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sp := space.Identify(k)
		rules := CandidateRules(sp, k)
		if len(rules) == 0 {
			t.Fatalf("%s: no candidate rules", name)
		}
		for _, r := range rules {
			p := sp.Param(r.Param)
			if p == nil {
				t.Errorf("%s: rule on unknown parameter %q", name, r.Param)
				continue
			}
			if r.SplitOrd <= 0 || r.SplitOrd >= p.Size() {
				t.Errorf("%s: rule %s splits outside (0,%d)", name, r, p.Size())
			}
			if r.Why == "" {
				t.Errorf("%s: rule %s has no methodology tag", name, r)
			}
		}
	}
}

// TestCandidateRulesPipelineSplits asserts the two pipeline splits of
// §4.3.1 exist for every loop: off|{on,flatten} and {off,on}|flatten.
func TestCandidateRulesPipelineSplits(t *testing.T) {
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	rules := CandidateRules(sp, k)
	splits := map[string]map[int]bool{}
	for _, r := range rules {
		p := sp.Param(r.Param)
		if p.Kind != space.FactorPipeline {
			continue
		}
		if splits[r.Param] == nil {
			splits[r.Param] = map[int]bool{}
		}
		splits[r.Param][r.SplitOrd] = true
	}
	for i := range sp.Params {
		p := &sp.Params[i]
		if p.Kind != space.FactorPipeline {
			continue
		}
		if !splits[p.Name][1] || !splits[p.Name][2] {
			t.Errorf("loop %s missing a pipeline split: have %v", p.LoopID, splits[p.Name])
		}
	}
}

// TestPartitionCardinalitiesSumToSpace is the counting form of the
// disjoint-and-covering property: since partitions are axis-aligned
// sub-boxes, their cardinalities must sum to the full space's.
func TestPartitionCardinalitiesSumToSpace(t *testing.T) {
	for _, name := range []string{"KMeans", "S-W"} {
		a := apps.Get(name)
		k, _ := a.Kernel()
		sp := space.Identify(k)
		eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
		parts := BuildPartitions(sp, k, eval, DefaultPartitionConfig(), 7)
		var sum float64
		for _, p := range parts {
			sum += p.Space(sp).Cardinality()
		}
		total := sp.Cardinality()
		if math.Abs(sum-total) > 1e-9*total {
			t.Errorf("%s: partition cardinalities sum to %.6g, space has %.6g", name, sum, total)
		}
	}
}

// TestPartitionSubDomainsAreSubsets checks every partition parameter's
// domain is contained in the parent space's domain.
func TestPartitionSubDomainsAreSubsets(t *testing.T) {
	a := apps.Get("S-W")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
	parts := BuildPartitions(sp, k, eval, DefaultPartitionConfig(), 7)
	for _, part := range parts {
		sub := part.Space(sp)
		if len(sub.Params) != len(sp.Params) {
			t.Fatalf("partition %q dropped parameters: %d vs %d",
				part, len(sub.Params), len(sp.Params))
		}
		for i := range sub.Params {
			p := &sub.Params[i]
			parent := sp.Param(p.Name)
			if parent == nil {
				t.Fatalf("partition %q invented parameter %q", part, p.Name)
			}
			for ord := 0; ord < p.Size(); ord++ {
				if !parent.Contains(p.ValueAt(ord)) {
					t.Errorf("partition %q: %s value %d outside parent domain",
						part, p.Name, p.ValueAt(ord))
				}
			}
		}
	}
}

// TestPartitionsServedMostPromisingFirst asserts the FCFS queue order:
// ascending mean training latency (§4.3.1).
func TestPartitionsServedMostPromisingFirst(t *testing.T) {
	a := apps.Get("KMeans")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
	parts := BuildPartitions(sp, k, eval, DefaultPartitionConfig(), 7)
	for i := 1; i < len(parts); i++ {
		if parts[i].MeanLatency < parts[i-1].MeanLatency {
			t.Errorf("partition %d (mean %.4g) served after %d (mean %.4g)",
				i, parts[i].MeanLatency, i-1, parts[i-1].MeanLatency)
		}
	}
}

// TestBuildPartitionsDeterministic: same seed, same tree.
func TestBuildPartitionsDeterministic(t *testing.T) {
	a := apps.Get("S-W")
	k, _ := a.Kernel()
	sp := space.Identify(k)
	build := func() []string {
		eval := NewEvaluator(k, sp, fpga.VU9P(), int64(a.Tasks), hls.Options{})
		parts := BuildPartitions(sp, k, eval, DefaultPartitionConfig(), 11)
		out := make([]string, len(parts))
		for i, p := range parts {
			out[i] = p.String()
		}
		return out
	}
	p1, p2 := build(), build()
	if len(p1) != len(p2) {
		t.Fatalf("partition counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("partition %d differs: %q vs %q", i, p1[i], p2[i])
		}
	}
}

func TestPartitionStringForms(t *testing.T) {
	if got := (Partition{}).String(); got != "full space" {
		t.Errorf("unconstrained partition String() = %q", got)
	}
	r := Rule{Param: "L1.parallel", SplitOrd: 3, Why: "loop-level-1"}
	if got := r.String(); got != "L1.parallel < ord 3 (loop-level-1)" {
		t.Errorf("Rule.String() = %q", got)
	}
}
