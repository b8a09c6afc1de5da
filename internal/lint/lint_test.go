package lint

import (
	"strings"
	"testing"

	"s2fa/internal/cir"
)

// IR-building helpers for hand-written kernels.

func intLit(v int64) *cir.IntLit { return &cir.IntLit{K: cir.Int, Val: v} }
func ref(n string) *cir.VarRef   { return &cir.VarRef{K: cir.Int, Name: n} }

func counted(id, v string, trip int64, body cir.Block) *cir.Loop {
	return &cir.Loop{ID: id, Var: v, Lo: intLit(0), Hi: intLit(trip), Step: 1, Body: body}
}

// kern wraps body in the canonical compiler-inserted task loop L0.
func kern(body cir.Block, params ...cir.Param) *cir.Kernel {
	task := &cir.Loop{
		ID: "L0", Var: "_task",
		Lo: intLit(0), Hi: &cir.VarRef{K: cir.Int, Name: "N"}, Step: 1,
		Body: body,
	}
	return &cir.Kernel{Name: "t", Params: params, Body: cir.Block{task}, TaskLoopID: "L0"}
}

func inArr(name string, n int) cir.Param {
	return cir.Param{Name: name, Elem: cir.Int, IsArray: true, Length: n}
}

func outArr(name string, n int) cir.Param {
	return cir.Param{Name: name, Elem: cir.Int, IsArray: true, Length: n, IsOutput: true}
}

// TestRules drives every rule through a positive (finding present) and a
// negative (finding absent) kernel. Cases with non-nil directive maps run
// only the legality pass (Checker.Directives); the rest run the full
// Lint entry point.
func TestRules(t *testing.T) {
	cases := []struct {
		name   string
		kernel func() *cir.Kernel
		loops  map[string]cir.LoopOpt // non-nil: run Directives instead of Lint
		bws    map[string]int
		rule   string
		sev    Severity
		want   bool // expect at least one finding under rule
	}{
		// Pass 1: dataflow.
		{
			name: "undefined-variable/read",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int, Init: ref("ghost")},
				})
			},
			rule: RuleUndefinedVar, sev: SevError, want: true,
		},
		{
			name: "undefined-variable/store-to-unknown-array",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Assign{LHS: &cir.Index{K: cir.Int, Arr: "ghost", Idx: intLit(0)}, RHS: intLit(1)},
				})
			},
			rule: RuleUndefinedVar, sev: SevError, want: true,
		},
		{
			name: "undefined-variable/negative",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int, Init: intLit(1)},
					&cir.Decl{Name: "y", K: cir.Int, Init: ref("x")},
				})
			},
			rule: RuleUndefinedVar, want: false,
		},
		{
			name: "uninitialized-read/scalar",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int}, // JVM zero default
					&cir.Decl{Name: "y", K: cir.Int, Init: ref("x")},
				})
			},
			rule: RuleUninitRead, sev: SevWarn, want: true,
		},
		{
			name: "uninitialized-read/output-array",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "y", K: cir.Int, Init: &cir.Index{K: cir.Int, Arr: "out", Idx: intLit(0)}},
				}, outArr("out", 4))
			},
			rule: RuleUninitRead, sev: SevWarn, want: true,
		},
		{
			name: "uninitialized-read/negative-input-array",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "y", K: cir.Int, Init: &cir.Index{K: cir.Int, Arr: "in", Idx: intLit(0)}},
				}, inArr("in", 4))
			},
			rule: RuleUninitRead, want: false,
		},
		{
			name: "uninitialized-read/negative-if-both-arms-assign",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int},
					&cir.If{
						Cond: &cir.Binary{K: cir.Bool, Op: cir.Lt, L: ref("_task"), R: intLit(1)},
						Then: cir.Block{&cir.Assign{LHS: ref("x"), RHS: intLit(1)}},
						Else: cir.Block{&cir.Assign{LHS: ref("x"), RHS: intLit(2)}},
					},
					&cir.Decl{Name: "y", K: cir.Int, Init: ref("x")},
				})
			},
			rule: RuleUninitRead, want: false,
		},
		{
			name: "uninitialized-read/one-armed-if-still-warns",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int},
					&cir.If{
						Cond: &cir.Binary{K: cir.Bool, Op: cir.Lt, L: ref("_task"), R: intLit(1)},
						Then: cir.Block{&cir.Assign{LHS: ref("x"), RHS: intLit(1)}},
					},
					&cir.Decl{Name: "y", K: cir.Int, Init: ref("x")},
				})
			},
			rule: RuleUninitRead, sev: SevWarn, want: true,
		},

		// Pass 2: bounds.
		{
			name: "array-bounds/provably-out",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.ArrDecl{Name: "a", Elem: cir.Int, Len: 4},
					&cir.Assign{LHS: &cir.Index{K: cir.Int, Arr: "a", Idx: intLit(10)}, RHS: intLit(0)},
				})
			},
			rule: RuleArrayBounds, sev: SevError, want: true,
		},
		{
			name: "array-bounds/possible-overrun-warns",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.ArrDecl{Name: "a", Elem: cir.Int, Len: 4},
					counted("L1", "i", 8, cir.Block{
						&cir.Assign{LHS: &cir.Index{K: cir.Int, Arr: "a", Idx: ref("i")}, RHS: intLit(0)},
					}),
				})
			},
			rule: RuleArrayBounds, sev: SevWarn, want: true,
		},
		{
			name: "array-bounds/negative-in-range",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.ArrDecl{Name: "a", Elem: cir.Int, Len: 8},
					counted("L1", "i", 8, cir.Block{
						&cir.Assign{LHS: &cir.Index{K: cir.Int, Arr: "a", Idx: ref("i")}, RHS: intLit(0)},
					}),
				})
			},
			rule: RuleArrayBounds, want: false,
		},
		{
			name: "array-bounds/negative-branch-reassignment",
			// A scalar reassigned in a branch must lose its interval: only
			// the post-branch read matters, and it is unknown, not [0,0].
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.ArrDecl{Name: "a", Elem: cir.Int, Len: 4},
					&cir.Decl{Name: "s", K: cir.Int, Init: intLit(0)},
					&cir.If{
						Cond: &cir.Binary{K: cir.Bool, Op: cir.Lt, L: ref("_task"), R: intLit(1)},
						Then: cir.Block{&cir.Assign{LHS: ref("s"), RHS: intLit(100)}},
					},
					&cir.Assign{LHS: &cir.Index{K: cir.Int, Arr: "a", Idx: ref("s")}, RHS: intLit(0)},
				})
			},
			rule: RuleArrayBounds, want: false,
		},

		// Pass 3 via pass 4: parallel races.
		{
			name: "parallel-race/non-reduction-recurrence",
			kernel: func() *cir.Kernel {
				k := kern(cir.Block{
					&cir.Decl{Name: "s", K: cir.Int, Init: intLit(1)},
					counted("L1", "i", 8, cir.Block{
						&cir.Assign{LHS: ref("s"), RHS: &cir.Binary{K: cir.Int, Op: cir.Mul, L: ref("s"), R: intLit(2)}},
					}),
				})
				return k
			},
			loops: map[string]cir.LoopOpt{"L1": {Parallel: 2}},
			rule:  RuleParallelRace, sev: SevWarn, want: true,
		},
		{
			name: "parallel-race/negative-additive-reduction",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "s", K: cir.Int, Init: intLit(0)},
					counted("L1", "i", 8, cir.Block{
						&cir.Assign{LHS: ref("s"), RHS: &cir.Binary{K: cir.Int, Op: cir.Add,
							L: ref("s"), R: &cir.Index{K: cir.Int, Arr: "in", Idx: ref("i")}}},
					}),
				}, inArr("in", 8))
			},
			loops: map[string]cir.LoopOpt{"L1": {Parallel: 2}},
			rule:  RuleParallelRace, want: false,
		},
		{
			name: "parallel-race/negative-factor-1",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "s", K: cir.Int, Init: intLit(1)},
					counted("L1", "i", 8, cir.Block{
						&cir.Assign{LHS: ref("s"), RHS: &cir.Binary{K: cir.Int, Op: cir.Mul, L: ref("s"), R: intLit(2)}},
					}),
				})
			},
			loops: map[string]cir.LoopOpt{"L1": {Parallel: 1}},
			rule:  RuleParallelRace, want: false,
		},

		// Pass 4: factors.
		{
			name:   "illegal-factor/parallel-exceeds-trip",
			kernel: func() *cir.Kernel { return kern(cir.Block{counted("L1", "i", 8, nil)}) },
			loops:  map[string]cir.LoopOpt{"L1": {Parallel: 16}},
			rule:   RuleIllegalFactor, sev: SevError, want: true,
		},
		{
			name:   "illegal-factor/negative-tile",
			kernel: func() *cir.Kernel { return kern(cir.Block{counted("L1", "i", 8, nil)}) },
			loops:  map[string]cir.LoopOpt{"L1": {Tile: -1}},
			rule:   RuleIllegalFactor, sev: SevError, want: true,
		},
		{
			name:   "illegal-factor/negative-in-range",
			kernel: func() *cir.Kernel { return kern(cir.Block{counted("L1", "i", 8, nil)}) },
			loops:  map[string]cir.LoopOpt{"L1": {Parallel: 4}},
			rule:   RuleIllegalFactor, want: false,
		},
		{
			name:   "factor-eq-trip/full-unroll-warns",
			kernel: func() *cir.Kernel { return kern(cir.Block{counted("L1", "i", 8, nil)}) },
			loops:  map[string]cir.LoopOpt{"L1": {Parallel: 8}},
			rule:   RuleFactorEqTrip, sev: SevWarn, want: true,
		},

		// Pass 4: flatten.
		{
			name: "flatten-variable-trip/while-in-subtree",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					counted("L1", "i", 4, cir.Block{
						&cir.While{Cond: &cir.Binary{K: cir.Bool, Op: cir.Lt, L: ref("i"), R: intLit(2)}},
					}),
				})
			},
			loops: map[string]cir.LoopOpt{"L1": {Pipeline: cir.PipeFlatten}},
			rule:  RuleFlattenVarTrip, sev: SevError, want: true,
		},
		{
			name: "flatten-variable-trip/symbolic-sub-loop-bound",
			kernel: func() *cir.Kernel {
				sub := counted("L2", "j", 4, nil)
				sub.Hi = ref("_task") // runtime bound: trip unknown
				return kern(cir.Block{counted("L1", "i", 4, cir.Block{sub})})
			},
			loops: map[string]cir.LoopOpt{"L1": {Pipeline: cir.PipeFlatten}},
			rule:  RuleFlattenVarTrip, sev: SevError, want: true,
		},
		{
			name: "flatten-variable-trip/negative-constant-nest",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{counted("L1", "i", 4, cir.Block{counted("L2", "j", 4, nil)})})
			},
			loops: map[string]cir.LoopOpt{"L1": {Pipeline: cir.PipeFlatten}},
			rule:  RuleFlattenVarTrip, want: false,
		},
		{
			name: "flatten-carried/sub-loop-recurrence",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "s", K: cir.Int, Init: intLit(1)},
					counted("L1", "i", 4, cir.Block{
						counted("L2", "j", 4, cir.Block{
							&cir.Assign{LHS: ref("s"), RHS: &cir.Binary{K: cir.Int, Op: cir.Mul, L: ref("s"), R: intLit(2)}},
						}),
					}),
				})
			},
			loops: map[string]cir.LoopOpt{"L1": {Pipeline: cir.PipeFlatten}},
			rule:  RuleFlattenCarried, sev: SevWarn, want: true,
		},
		{
			name:   "flatten-leaf/warns",
			kernel: func() *cir.Kernel { return kern(cir.Block{counted("L1", "i", 8, nil)}) },
			loops:  map[string]cir.LoopOpt{"L1": {Pipeline: cir.PipeFlatten}},
			rule:   RuleFlattenLeaf, sev: SevWarn, want: true,
		},

		// Pass 4: bit-widths.
		{
			name:   "illegal-bitwidth/not-power-of-two",
			kernel: func() *cir.Kernel { return kern(nil, inArr("in", 4)) },
			loops:  map[string]cir.LoopOpt{},
			bws:    map[string]int{"in": 48},
			rule:   RuleIllegalWidth, sev: SevError, want: true,
		},
		{
			name:   "illegal-bitwidth/too-narrow",
			kernel: func() *cir.Kernel { return kern(nil, inArr("in", 4)) },
			loops:  map[string]cir.LoopOpt{},
			bws:    map[string]int{"in": 4},
			rule:   RuleIllegalWidth, sev: SevError, want: true,
		},
		{
			name: "illegal-bitwidth/scalar-target",
			kernel: func() *cir.Kernel {
				return kern(nil, cir.Param{Name: "alpha", Elem: cir.Double})
			},
			loops: map[string]cir.LoopOpt{},
			bws:   map[string]int{"alpha": 64},
			rule:  RuleIllegalWidth, sev: SevError, want: true,
		},
		{
			name:   "illegal-bitwidth/negative-legal",
			kernel: func() *cir.Kernel { return kern(nil, inArr("in", 4)) },
			loops:  map[string]cir.LoopOpt{},
			bws:    map[string]int{"in": 64},
			rule:   RuleIllegalWidth, want: false,
		},
		{
			name: "bitwidth-narrowing/below-element",
			kernel: func() *cir.Kernel {
				return kern(nil, cir.Param{Name: "xs", Elem: cir.Double, IsArray: true, Length: 4})
			},
			loops: map[string]cir.LoopOpt{},
			bws:   map[string]int{"xs": 32},
			rule:  RuleNarrowWidth, sev: SevWarn, want: true,
		},

		// Pass 4: unknown targets.
		{
			name:   "unknown-loop",
			kernel: func() *cir.Kernel { return kern(nil) },
			loops:  map[string]cir.LoopOpt{"L99": {Parallel: 2}},
			rule:   RuleUnknownLoop, sev: SevError, want: true,
		},
		{
			name:   "unknown-param",
			kernel: func() *cir.Kernel { return kern(nil) },
			loops:  map[string]cir.LoopOpt{},
			bws:    map[string]int{"ghost": 64},
			rule:   RuleUnknownParam, sev: SevError, want: true,
		},

		// Pass 5: structure.
		{
			name: "duplicate-loop-id",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{counted("L1", "i", 4, nil), counted("L1", "j", 4, nil)})
			},
			rule: RuleDupLoopID, sev: SevError, want: true,
		},
		{
			name: "duplicate-local",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int, Init: intLit(1)},
					&cir.Decl{Name: "x", K: cir.Int, Init: intLit(2)},
				})
			},
			rule: RuleDupLocal, sev: SevError, want: true,
		},
		{
			name: "shadowed-local",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					&cir.Decl{Name: "x", K: cir.Int, Init: intLit(1)},
					counted("L1", "i", 4, cir.Block{
						&cir.Decl{Name: "x", K: cir.Int, Init: intLit(2)},
					}),
				})
			},
			rule: RuleShadowedLocal, sev: SevWarn, want: true,
		},
		{
			name: "loop-var-write",
			kernel: func() *cir.Kernel {
				return kern(cir.Block{
					counted("L1", "i", 4, cir.Block{
						&cir.Assign{LHS: ref("i"), RHS: intLit(0)},
					}),
				})
			},
			rule: RuleLoopVarWrite, sev: SevError, want: true,
		},
		{
			name: "bad-step",
			kernel: func() *cir.Kernel {
				l := counted("L1", "i", 4, nil)
				l.Step = 0
				return kern(cir.Block{l})
			},
			rule: RuleBadStep, sev: SevError, want: true,
		},
		{
			name: "missing-task-loop",
			kernel: func() *cir.Kernel {
				k := kern(nil)
				k.TaskLoopID = "L9"
				return k
			},
			rule: RuleMissingTask, sev: SevError, want: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.kernel()
			var fs Findings
			if tc.loops != nil || tc.bws != nil {
				fs = NewChecker(k).Directives(tc.loops, tc.bws)
			} else {
				fs = Lint(k)
			}
			hits := fs.ByRule(tc.rule)
			if tc.want && len(hits) == 0 {
				t.Fatalf("rule %s not reported; findings:\n%s", tc.rule, fs)
			}
			if !tc.want && len(hits) > 0 {
				t.Fatalf("rule %s reported unexpectedly:\n%s", tc.rule, hits)
			}
			for _, f := range hits {
				if f.Sev != tc.sev {
					t.Errorf("rule %s severity = %s, want %s", tc.rule, f.Sev, tc.sev)
				}
				if f.Kernel != k.Name {
					t.Errorf("finding kernel = %q, want %q", f.Kernel, k.Name)
				}
			}
		})
	}
}

func TestFindingsHelpers(t *testing.T) {
	fs := Findings{
		{Rule: "b-warn", Sev: SevWarn, Detail: "w"},
		{Rule: "a-error", Sev: SevError, Detail: "e"},
		{Rule: "a-error", Sev: SevError, Detail: "d"},
	}
	fs.Sort()
	if fs[0].Sev != SevError || fs[len(fs)-1].Sev != SevWarn {
		t.Errorf("Sort did not order errors first: %v", fs)
	}
	if fs[0].Detail != "d" {
		t.Errorf("Sort not stable by detail within rule: %v", fs)
	}
	if !fs.HasErrors() || len(fs.Errors()) != 2 || len(fs.Warnings()) != 1 {
		t.Errorf("error/warning split wrong: %d/%d", len(fs.Errors()), len(fs.Warnings()))
	}
	if Findings(nil).HasErrors() {
		t.Error("empty findings claim errors")
	}
	if got := Findings(nil).String(); got != "no findings" {
		t.Errorf("empty String() = %q", got)
	}
	f := Finding{Rule: "r", Sev: SevError, Kernel: "k", LoopID: "L1", Where: "x", Detail: "boom"}
	s := f.String()
	for _, part := range []string{"error[r]", "k", "loop L1", "at x", "boom"} {
		if !strings.Contains(s, part) {
			t.Errorf("Finding.String() = %q missing %q", s, part)
		}
	}
}
