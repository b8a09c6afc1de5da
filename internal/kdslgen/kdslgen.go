// Package kdslgen is a deterministic, seeded generator of kdsl kernel
// programs paired with an executable reference semantics.
//
// The repo validates every analysis layer against the eight hand-written
// paper workloads; that is a demo, not scenario diversity. kdslgen turns
// the validation suites into property tests over an unbounded kernel
// population: Generate(seed, n) emits n valid §3.3-conforming kernels —
// perfect and imperfect loop nests, while-loops, reductions and
// select-chains, burst/strided/reverse/gather access shapes, mixed
// bitwidths — and every kernel carries its own reference evaluator,
// built on the same cir scalar semantics (cir.EvalBinary/EvalIntrinsic)
// that the JVM simulator and the HLS-C evaluator share, but interpreting
// the generator's own mini-IR directly. The parser, checker, bytecode
// compiler, verifier, decompiler, and every downstream analysis are
// therefore all under differential test; only the scalar arithmetic is
// shared, by design, so width semantics cannot drift.
//
// GenerateNegatives emits tagged invalid kernels — parse errors,
// §3.3 structure violations, and purity violations — with the pipeline
// stage that must reject each one.
//
// Kernel.Shrink delta-debugs a failing kernel to a minimal reproducer:
// it repeatedly applies structural edits (drop a statement, unwrap a
// branch, halve a trip count, prune a subexpression) and keeps every
// edit that still fails the caller's predicate.
//
// Everything is a pure function of the seed: same seed, byte-identical
// kernel set.
package kdslgen

import (
	"fmt"
	"math/rand"

	"s2fa/internal/cir"
)

// FieldVal is one input field or kernel result: a primitive scalar or an
// array of primitives (the only shapes §3.3 admits for generated
// kernels; the hand-written workloads cover tuple outputs).
type FieldVal struct {
	S     cir.Value
	Arr   []cir.Value
	IsArr bool
}

// Kernel is one generated kernel: rendered kdsl source plus executable
// reference semantics over the same program.
type Kernel struct {
	Name   string // class name
	ID     string // accelerator id (`val id`)
	Source string
	// Tags describe the shapes the kernel exercises (family name plus
	// markers like "gather", "while", "reduce").
	Tags []string

	p   *prog
	opt evalOpt
}

// Generate returns n valid kernels. Deterministic: the same (seed, n)
// yields a byte-identical kernel set, and kernel i is independent of n
// (generating 10 then 200 kernels agrees on the first 10).
func Generate(seed int64, n int) []*Kernel {
	out := make([]*Kernel, n)
	for i := 0; i < n; i++ {
		out[i] = generateOne(seed, i)
	}
	return out
}

func generateOne(seed int64, idx int) *Kernel {
	// Each kernel draws from its own stream so kernel identity depends
	// only on (seed, idx), never on how many kernels came before it.
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(idx)))
	p := buildProg(rng, seed, idx)
	return newKernel(p)
}

func newKernel(p *prog) *Kernel {
	return &Kernel{
		Name:   p.ClassName,
		ID:     p.ID,
		Source: p.render(),
		Tags:   append([]string(nil), p.Tags...),
		p:      p,
	}
}

// HasReduce reports whether the kernel defines a reduce combiner.
func (k *Kernel) HasReduce() bool { return k.p.Reduce != "" }

// NewTask draws one task's input fields from rng. Values are generated
// at the exact declared kinds, so serialization through any layer is
// conversion-free.
func (k *Kernel) NewTask(rng *rand.Rand) []FieldVal {
	task := make([]FieldVal, len(k.p.In))
	for i, f := range k.p.In {
		if !f.Arr {
			task[i] = FieldVal{S: randValue(rng, f.K)}
			continue
		}
		arr := make([]cir.Value, f.Len)
		for j := range arr {
			arr[j] = randValue(rng, f.K)
		}
		task[i] = FieldVal{Arr: arr, IsArr: true}
	}
	return task
}

func randValue(rng *rand.Rand, k cir.Kind) cir.Value {
	switch k {
	case cir.Char:
		return cir.IntVal(cir.Char, int64(rng.Intn(256)-128))
	case cir.Short:
		return cir.IntVal(cir.Short, int64(rng.Intn(1<<12)-(1<<11)))
	case cir.Int:
		return cir.IntVal(cir.Int, int64(rng.Intn(201)-100))
	case cir.Long:
		return cir.IntVal(cir.Long, int64(rng.Intn(4001)-2000))
	case cir.Float:
		return cir.FloatVal(cir.Float, rng.Float64()*16-8)
	default:
		return cir.FloatVal(cir.Double, rng.Float64()*16-8)
	}
}

// Eval runs the reference semantics on one task.
func (k *Kernel) Eval(task []FieldVal) (FieldVal, error) {
	return k.p.eval(task, k.opt)
}

// EvalReduce folds two output vectors elementwise with the reduce
// combiner, without mutating either argument.
func (k *Kernel) EvalReduce(a, b FieldVal) (FieldVal, error) {
	return k.p.evalReduce(a, b)
}

// WithEvalDefect returns a copy of the kernel whose reference evaluator
// deliberately computes subtraction as addition. Differential tests
// against it fail exactly when the kernel's output depends on a
// subtraction — a controlled, injected defect for demonstrating that
// shrinking converges on a minimal reproducer.
func (k *Kernel) WithEvalDefect() *Kernel {
	c := *k
	c.opt.defectSubAsAdd = true
	return &c
}

// StmtCount returns the number of statements in the call body,
// recursively — the size metric shrinking minimizes.
func (k *Kernel) StmtCount() int { return countBlock(k.p.Body) }

func countBlock(b []stmt) int {
	n := 0
	for _, s := range b {
		n++
		switch s := s.(type) {
		case *forS:
			n += countBlock(s.Body)
		case *whileS:
			n += countBlock(s.Body)
		case *ifS:
			n += countBlock(s.Then) + countBlock(s.Else)
		}
	}
	return n
}

// Reject tags the pipeline stage that must reject a negative case.
type Reject int

const (
	// RejectParse cases must fail kdsl.Parse.
	RejectParse Reject = iota
	// RejectCheck cases parse but must fail kdsl.Compile (the §3.3
	// structure checker).
	RejectCheck
	// RejectPurity cases compile — the frontend admits them — but
	// violate kernel purity: absint must report the class impure and
	// the blaze runtime must refuse to offload them.
	RejectPurity
)

func (r Reject) String() string {
	switch r {
	case RejectParse:
		return "parse"
	case RejectCheck:
		return "check"
	case RejectPurity:
		return "purity"
	}
	return fmt.Sprintf("reject(%d)", int(r))
}

// Negative is a tagged invalid kernel: source plus the stage that must
// reject it and a short reason.
type Negative struct {
	Name   string
	Source string
	Stage  Reject
	Why    string
	// Kernel carries reference semantics for RejectPurity cases (which
	// execute fine on the JVM); nil for parse/check cases.
	Kernel *Kernel
}
