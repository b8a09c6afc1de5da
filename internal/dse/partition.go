// Package dse implements S2FA's parallel learning-based design space
// exploration (paper §4): an OpenTuner-style ensemble search accelerated
// by static design-space partitioning ranked with a variance-impurity
// decision tree (§4.3.1), performance-/area-driven seed generation
// (§4.3.2), and a Shannon-entropy early-stopping criterion (§4.3.3), all
// executed by a first-come-first-serve partition scheduler over simulated
// CPU cores on a virtual clock.
package dse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"s2fa/internal/cir"
	"s2fa/internal/space"
	"s2fa/internal/tuner"
)

// Rule is one candidate partitioning predicate: it splits a parameter's
// ordinal domain at SplitOrd (left: ord < SplitOrd, right: ord >=
// SplitOrd). Rules come from the two methodologies of §4.3.1: loop
// hierarchy (factors at the same loop level behave similarly across
// applications) and RDD transformation semantics (the compiler-inserted
// outermost loop reflects the parallel pattern).
type Rule struct {
	Param    string
	SplitOrd int
	Why      string
}

func (r Rule) String() string { return fmt.Sprintf("%s < ord %d (%s)", r.Param, r.SplitOrd, r.Why) }

// Partition is a leaf of the decision tree: a sub-box of the design space
// described by conjoined constraints on the full space's ordinals. It
// holds no space of its own; the scheduler restricts the full space to
// it when a worker takes it (Space), so a finished Outcome's partitions
// pin neither a space copy nor the kernel.
type Partition struct {
	Constraints []space.Constraint
	Rules       []string
	// MeanLatency is the mean objective of offline training samples that
	// fell inside this partition; the FCFS queue is sorted by it.
	MeanLatency float64
}

func (p Partition) String() string {
	if len(p.Rules) == 0 {
		return "full space"
	}
	return strings.Join(p.Rules, " & ")
}

// Space returns the sub-box of full the partition describes: full itself
// when the partition is unconstrained. BuildPartitions only yields
// non-empty boxes, so a constraint that empties a domain is a
// programmer error and panics.
func (p Partition) Space(full *space.Space) *space.Space {
	if len(p.Constraints) == 0 {
		return full
	}
	sub, err := space.Restrict(full, p.Constraints)
	if err != nil {
		panic(fmt.Sprintf("dse: partition %s: %v", p, err))
	}
	return sub
}

// CandidateRules derives the rule pool for a kernel from its loop
// hierarchy and RDD pattern.
func CandidateRules(s *space.Space, k *cir.Kernel) []Rule {
	var rules []Rule
	for i := range s.Params {
		p := &s.Params[i]
		size := p.Size()
		levelWhy := fmt.Sprintf("loop-level-%d", p.Depth)
		if p.LoopID == k.TaskLoopID {
			levelWhy = "rdd-" + k.Pattern.String() + "-outer"
		}
		switch p.Kind {
		case space.FactorParallel:
			for _, v := range []int{4, 16, 64} {
				if ord := p.Ordinal(p.Clamp(v)); ord > 0 && ord < size {
					rules = append(rules, Rule{Param: p.Name, SplitOrd: ord, Why: levelWhy})
				}
			}
		case space.FactorTile:
			if size > 3 {
				rules = append(rules, Rule{Param: p.Name, SplitOrd: size / 2, Why: levelWhy})
			}
		case space.FactorPipeline:
			// off | {on, flatten} and {off, on} | flatten.
			rules = append(rules, Rule{Param: p.Name, SplitOrd: 1, Why: levelWhy + "-pipe"})
			if size > 2 {
				rules = append(rules, Rule{Param: p.Name, SplitOrd: 2, Why: levelWhy + "-flatten"})
			}
		case space.FactorBitWidth:
			if size > 2 {
				rules = append(rules, Rule{Param: p.Name, SplitOrd: size / 2, Why: "interface-width"})
			}
		}
	}
	return rules
}

// treeSample is one offline training observation for the decision tree.
type treeSample struct {
	pt  space.Point
	obj float64
}

type treeNode struct {
	rule        *Rule
	left, right *treeNode
}

// PartitionConfig tunes the partitioner.
type PartitionConfig struct {
	// TrainingSamples is the number of offline evaluations used to rank
	// rules. These model the pre-established per-loop-hierarchy rules of
	// §4.3.1 and are not charged to the DSE clock.
	TrainingSamples int
	// MaxDepth bounds the decision tree (leaves <= 2^MaxDepth).
	MaxDepth int
	// MinLeaf stops splitting below this sample count.
	MinLeaf int
}

// DefaultPartitionConfig mirrors the paper's setup: enough partitions to
// keep eight cores busy.
func DefaultPartitionConfig() PartitionConfig {
	return PartitionConfig{TrainingSamples: 96, MaxDepth: 2, MinLeaf: 8}
}

// BuildPartitions trains a variance-impurity decision tree over offline
// samples and returns its leaves as disjoint design-space partitions
// ordered by promise (ascending mean latency of training samples in the
// leaf), which is the order the FCFS scheduler serves them in.
func BuildPartitions(s *space.Space, k *cir.Kernel, eval tuner.Evaluator, cfg PartitionConfig, seed int64) []Partition {
	return buildPartitions(s, k, eval, cfg, seed, nil)
}

// buildPartitions is BuildPartitions with an optional prefetch hook: the
// full training-point list is generated up front (point generation never
// depends on evaluation results, so the random stream is unchanged) and
// announced to prefetch before the in-order evaluations begin. The
// parallel engine uses the hook to warm its evaluation pool so the ~100
// training estimations overlap instead of running back to back.
func buildPartitions(s *space.Space, k *cir.Kernel, eval tuner.Evaluator, cfg PartitionConfig, seed int64, prefetch func(space.Point)) []Partition {
	rng := rand.New(rand.NewSource(seed))
	rules := CandidateRules(s, k)
	if len(rules) == 0 {
		return []Partition{{}}
	}

	// Training set: uniform samples plus samples anchored around the
	// conservative seed (the offline "training data to establish the
	// rules" of §4.3.1 comes from applications with similar loop
	// hierarchies, whose good configurations cluster near the feasible
	// region).
	pts := make([]space.Point, 0, cfg.TrainingSamples+2)
	pts = append(pts, s.AreaSeed(), s.PerformanceSeed())
	area := s.AreaSeed()
	for i := 0; i < cfg.TrainingSamples; i++ {
		if i%2 == 0 {
			pts = append(pts, s.RandomPoint(rng))
			continue
		}
		// Local walk around the conservative seed: mutate a few factors.
		pt := area.Clone()
		for m := 0; m < 2+rng.Intn(3); m++ {
			pp := &s.Params[rng.Intn(len(s.Params))]
			pt[pp.Name] = pp.Random(rng)
		}
		pts = append(pts, pt)
	}
	if prefetch != nil {
		for _, pt := range pts {
			prefetch(pt)
		}
	}
	samples := make([]treeSample, 0, len(pts))
	for _, pt := range pts {
		r := eval(pt)
		samples = append(samples, treeSample{pt: pt, obj: r.Objective})
	}
	// Clamp unbounded penalties so variance stays informative.
	var worstFinite float64 = 1
	for _, smp := range samples {
		if !math.IsInf(smp.obj, 1) && smp.obj > worstFinite {
			worstFinite = smp.obj
		}
	}
	for i := range samples {
		if math.IsInf(samples[i].obj, 1) {
			samples[i].obj = worstFinite * 4
		}
	}

	// Mandatory first-level split on the RDD-semantics rule: the
	// scheduling (pipeline mode) of the compiler-inserted outermost loop
	// (paper §4.3.1: "we define the rule based on the scheduling of the
	// outermost loop in kernels"). The decision tree then refines each
	// branch with the loop-hierarchy rules.
	taskPipe := k.TaskLoopID + ".pipeline"
	var parts []Partition
	tp := s.Param(taskPipe)
	for ord := 0; ord < tp.Size(); ord++ {
		var branchSamples []treeSample
		for _, smp := range samples {
			if tp.Ordinal(smp.pt[taskPipe]) == ord {
				branchSamples = append(branchSamples, smp)
			}
		}
		branchRules := make([]Rule, 0, len(rules))
		for _, r := range rules {
			if r.Param != taskPipe {
				branchRules = append(branchRules, r)
			}
		}
		why := fmt.Sprintf("%s==%d", taskPipe, tp.ValueAt(ord))
		// The branch rules leave the task pipeline alone, so the tree
		// below it splits domains the full space shares with the branch.
		c := space.Constraint{Param: taskPipe, LoOrd: ord, HiOrd: ord}
		root := buildTree(branchSamples, branchRules, s, cfg, 1)
		collectLeaves(root, s, []space.Constraint{c}, []string{why}, branchSamples, &parts)
	}
	if len(parts) == 0 {
		return []Partition{{}}
	}
	// Serve the most promising region first: FCFS order by mean training
	// latency inside each leaf.
	sort.SliceStable(parts, func(i, j int) bool { return parts[i].MeanLatency < parts[j].MeanLatency })
	return parts
}

// buildTree grows the tree greedily by information gain with variance
// impurity (paper Eq. 1; variance is the impurity for regressed latency).
func buildTree(samples []treeSample, rules []Rule, s *space.Space, cfg PartitionConfig, depth int) *treeNode {
	if depth >= cfg.MaxDepth || len(samples) < 2*cfg.MinLeaf {
		return &treeNode{}
	}
	baseImp := variance(samples)
	var best *Rule
	var bestGain float64
	var bestL, bestR []treeSample
	for i := range rules {
		r := &rules[i]
		l, rr := split(samples, r, s)
		if len(l) < cfg.MinLeaf || len(rr) < cfg.MinLeaf {
			continue
		}
		n := float64(len(samples))
		gain := baseImp - float64(len(l))/n*variance(l) - float64(len(rr))/n*variance(rr)
		if gain > bestGain {
			best, bestGain, bestL, bestR = r, gain, l, rr
		}
	}
	if best == nil || bestGain <= 1e-15 {
		return &treeNode{}
	}
	// A rule is consumed once per path (re-splitting the same ordinal
	// threshold is a no-op anyway).
	rest := make([]Rule, 0, len(rules)-1)
	for i := range rules {
		if rules[i] != *best {
			rest = append(rest, rules[i])
		}
	}
	return &treeNode{
		rule:  best,
		left:  buildTree(bestL, rest, s, cfg, depth+1),
		right: buildTree(bestR, rest, s, cfg, depth+1),
	}
}

func split(samples []treeSample, r *Rule, s *space.Space) (l, rr []treeSample) {
	p := s.Param(r.Param)
	for _, smp := range samples {
		if p.Ordinal(smp.pt[r.Param]) < r.SplitOrd {
			l = append(l, smp)
		} else {
			rr = append(rr, smp)
		}
	}
	return l, rr
}

func variance(samples []treeSample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var mean float64
	for _, s := range samples {
		mean += s.obj
	}
	mean /= float64(len(samples))
	var v float64
	for _, s := range samples {
		d := s.obj - mean
		v += d * d
	}
	return v / float64(len(samples))
}

func collectLeaves(n *treeNode, s *space.Space, cons []space.Constraint, why []string, samples []treeSample, out *[]Partition) {
	if n.rule == nil {
		mean := math.Inf(1)
		if len(samples) > 0 {
			mean = 0
			for _, smp := range samples {
				mean += smp.obj
			}
			mean /= float64(len(samples))
		}
		p := Partition{
			Constraints: append([]space.Constraint(nil), cons...),
			Rules:       append([]string(nil), why...),
			MeanLatency: mean,
		}
		*out = append(*out, p)
		return
	}
	p := s.Param(n.rule.Param)
	lc := space.Constraint{Param: n.rule.Param, LoOrd: 0, HiOrd: n.rule.SplitOrd - 1}
	rc := space.Constraint{Param: n.rule.Param, LoOrd: n.rule.SplitOrd, HiOrd: p.Size() - 1}
	lw := fmt.Sprintf("%s<%d", n.rule.Param, p.ValueAt(n.rule.SplitOrd))
	rw := fmt.Sprintf("%s>=%d", n.rule.Param, p.ValueAt(n.rule.SplitOrd))
	lSamples, rSamples := split(samples, n.rule, s)
	// Copy the path slices: both children extend them independently.
	lCons := append(append([]space.Constraint(nil), cons...), lc)
	rCons := append(append([]space.Constraint(nil), cons...), rc)
	lWhy := append(append([]string(nil), why...), lw)
	rWhy := append(append([]string(nil), why...), rw)
	collectLeaves(n.left, s, lCons, lWhy, lSamples, out)
	collectLeaves(n.right, s, rCons, rWhy, rSamples, out)
}
