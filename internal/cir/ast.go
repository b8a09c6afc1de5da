package cir

import "strconv"

// BinOp enumerates binary operators. The set matches what the restricted
// JVM bytecode front-end can produce.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Rem
	And // bitwise
	Or
	Xor
	Shl
	Shr
	Lt
	Le
	Gt
	Ge
	Eq
	Ne
	LAnd // logical, short-circuit
	LOr
)

// IsCompare reports whether the operator yields a Bool.
func (op BinOp) IsCompare() bool { return op >= Lt && op <= Ne }

// IsLogical reports whether the operator is a short-circuit logical op.
func (op BinOp) IsLogical() bool { return op == LAnd || op == LOr }

func (op BinOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Rem:
		return "%"
	case And:
		return "&"
	case Or:
		return "|"
	case Xor:
		return "^"
	case Shl:
		return "<<"
	case Shr:
		return ">>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	case Ne:
		return "!="
	case LAnd:
		return "&&"
	case LOr:
		return "||"
	}
	return "?"
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	Neg    UnOp = iota // arithmetic negation
	Not                // logical not
	BitNot             // bitwise complement
)

func (op UnOp) String() string {
	switch op {
	case Neg:
		return "-"
	case Not:
		return "!"
	case BitNot:
		return "~"
	}
	return "?"
}

// Expr is an IR expression node.
type Expr interface {
	// Kind is the static result type of the expression.
	Kind() Kind
	exprNode()
}

// IntLit is an integer literal of a specific kind.
type IntLit struct {
	K   Kind
	Val int64
}

// FloatLit is a floating-point literal of a specific kind.
type FloatLit struct {
	K   Kind
	Val float64
}

// VarRef reads a scalar variable (local, parameter, or loop index).
type VarRef struct {
	K    Kind
	Name string
}

// Pos is a kdsl source position carried from the bytecode line-number
// table through the bytecode-to-C compiler. The zero value means
// "synthesized" (no source position).
type Pos struct {
	Line, Col int
}

// Valid reports whether the position refers to real source.
func (p Pos) Valid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.Valid() {
		return "?"
	}
	if p.Col > 0 {
		return strconv.Itoa(p.Line) + ":" + strconv.Itoa(p.Col)
	}
	return strconv.Itoa(p.Line)
}

// Index reads or designates an element of a named array (parameter buffer,
// local static array, or constant global). Pos is the kdsl source
// position of the access (zero when the access was synthesized by a
// transformation).
type Index struct {
	K   Kind
	Arr string
	Idx Expr
	Pos Pos
}

// Unary applies a unary operator.
type Unary struct {
	Op UnOp
	X  Expr
}

// Binary applies a binary operator. K caches the result kind (Bool for
// comparisons, the promoted operand kind otherwise).
type Binary struct {
	K    Kind
	Op   BinOp
	L, R Expr
}

// Cast converts a value to another scalar kind with C semantics.
type Cast struct {
	To Kind
	X  Expr
}

// Cond is the C ternary operator c ? t : f.
type Cond struct {
	C, T, F Expr
}

// Call invokes a math intrinsic (exp, log, sqrt, fabs, min, max, pow).
// Intrinsics are the only calls that survive into HLS C: all user methods
// are inlined by the bytecode-to-C compiler (paper §3.2).
type Call struct {
	K    Kind
	Name string
	Args []Expr
}

// Kind implementations.
func (e *IntLit) Kind() Kind   { return e.K }
func (e *FloatLit) Kind() Kind { return e.K }
func (e *VarRef) Kind() Kind   { return e.K }
func (e *Index) Kind() Kind    { return e.K }
func (e *Unary) Kind() Kind {
	if e.Op == Not {
		return Bool
	}
	return e.X.Kind()
}
func (e *Binary) Kind() Kind { return e.K }
func (e *Cast) Kind() Kind   { return e.To }
func (e *Cond) Kind() Kind   { return e.T.Kind() }
func (e *Call) Kind() Kind   { return e.K }

func (*IntLit) exprNode()   {}
func (*FloatLit) exprNode() {}
func (*VarRef) exprNode()   {}
func (*Index) exprNode()    {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}
func (*Cast) exprNode()     {}
func (*Cond) exprNode()     {}
func (*Call) exprNode()     {}

// Stmt is an IR statement node.
type Stmt interface{ stmtNode() }

// Block is a statement sequence.
type Block []Stmt

// Decl declares a scalar local variable with an optional initializer.
type Decl struct {
	Name string
	K    Kind
	Init Expr // may be nil (zero-initialized, matching JVM locals)
}

// ArrDecl declares a statically sized local array. JVM `new` expressions
// with constant size compile to these (paper §3.3: no dynamic allocation
// on the FPGA).
type ArrDecl struct {
	Name string
	Elem Kind
	Len  int
}

// Assign stores RHS into LHS, which must be a *VarRef or *Index.
type Assign struct {
	LHS Expr
	RHS Expr
}

// If is a two-armed conditional; Else may be nil.
type If struct {
	Cond Expr
	Then Block
	Else Block
}

// PipelineMode selects the pipeline pragma state of a loop (Table 1:
// {on, off, flatten}). Flatten is the Merlin transformation that applies
// fine-grained pipelining to a nested loop by fully unrolling all
// sub-loops.
type PipelineMode uint8

// Pipeline pragma states.
const (
	PipeOff PipelineMode = iota
	PipeOn
	PipeFlatten
)

func (p PipelineMode) String() string {
	switch p {
	case PipeOff:
		return "off"
	case PipeOn:
		return "on"
	case PipeFlatten:
		return "flatten"
	}
	return "?"
}

// LoopOpt carries the design-space directives attached to one loop.
// The zero value means "no optimization": no tiling, no parallelism,
// pipeline off — the conservative area-driven configuration.
type LoopOpt struct {
	Tile     int // tile factor; 0 or 1 = untiled
	Parallel int // unroll/duplication factor; 0 or 1 = sequential
	Pipeline PipelineMode
}

// Loop is a canonical counted loop:
//
//	for (Var = Lo; Var < Hi; Var += Step) Body
//
// ID is a stable identifier assigned by the producing compiler and is the
// key used by the design space (internal/space) to address the loop.
type Loop struct {
	ID   string
	Var  string
	Lo   Expr
	Hi   Expr
	Step int64
	Body Block
	Opt  LoopOpt
	// Reduction names the scalar accumulated across iterations when the
	// loop implements a reduce pattern; empty otherwise. Set by the
	// bytecode-to-C compiler and used by the Merlin tree-reduction
	// transform.
	Reduction string
}

// While is a general condition-driven loop. It survives in the IR for
// completeness (the structurer can emit it for irreducible counting
// patterns) but takes no design-space directives: HLS treats it as
// sequential.
type While struct {
	Cond Expr
	Body Block
}

// Break exits the innermost loop.
type Break struct{}

// Continue advances the innermost loop.
type Continue struct{}

// Return exits the kernel function; Val may be nil for void.
type Return struct {
	Val Expr
}

func (*Decl) stmtNode()     {}
func (*ArrDecl) stmtNode()  {}
func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*Loop) stmtNode()     {}
func (*While) stmtNode()    {}
func (*Break) stmtNode()    {}
func (*Continue) stmtNode() {}
func (*Return) stmtNode()   {}

// Param describes one kernel interface buffer or scalar.
type Param struct {
	Name     string
	Elem     Kind
	IsArray  bool
	Length   int  // elements per task for array params
	IsOutput bool // written by the kernel
	// BitWidth is the off-chip interface bit-width (Table 1: 8 < 2^n <=
	// 512). Zero means the natural element width.
	BitWidth int
	// ValLo/ValHi bound every value the buffer provably carries at
	// runtime. The bytecode-to-C compiler seeds them from the abstract
	// interpreter's value-range facts (internal/absint); they are valid
	// only when ValKnown is set.
	ValLo, ValHi float64
	ValKnown     bool
}

// Global is a read-only constant array available to the kernel (e.g. an
// AES S-box). These compile from `final static` fields of registered S2FA
// class templates.
type Global struct {
	Name string
	Elem Kind
	Data []Value
}

// Pattern is the RDD transformation semantics the kernel was derived from.
// The bytecode-to-C compiler inserts the outer task loop according to this
// pattern (paper §3.2), and the DSE partitioner uses it as a partition rule
// input (paper §4.3.1).
type Pattern uint8

// Supported RDD parallel patterns.
const (
	PatternMap Pattern = iota
	PatternReduce
)

func (p Pattern) String() string {
	if p == PatternReduce {
		return "reduce"
	}
	return "map"
}

// Kernel is a complete HLS C kernel: a single top-level function whose
// outermost loop iterates over tasks, with all user methods inlined.
type Kernel struct {
	Name    string
	Pattern Pattern
	Globals []Global
	Params  []Param // kernel buffer interface; N tasks is implicit
	Body    Block   // top-level statements; outermost Loop is the task loop
	// TaskLoopID is the ID of the compiler-inserted outermost task loop.
	TaskLoopID string
}

// Param returns the named parameter, or nil.
func (k *Kernel) Param(name string) *Param {
	for i := range k.Params {
		if k.Params[i].Name == name {
			return &k.Params[i]
		}
	}
	return nil
}

// Loops returns all loops in the kernel in preorder.
func (k *Kernel) Loops() []*Loop {
	var out []*Loop
	var walk func(b Block)
	walk = func(b Block) {
		for _, s := range b {
			switch s := s.(type) {
			case *Loop:
				out = append(out, s)
				walk(s.Body)
			case *If:
				walk(s.Then)
				walk(s.Else)
			case *While:
				walk(s.Body)
			}
		}
	}
	walk(k.Body)
	return out
}

// FindLoop returns the loop with the given ID, or nil.
func (k *Kernel) FindLoop(id string) *Loop {
	for _, l := range k.Loops() {
		if l.ID == id {
			return l
		}
	}
	return nil
}

// TripCount returns the constant trip count of the loop, or 0 if the
// bounds are not compile-time constants.
func (l *Loop) TripCount() int64 {
	lo, okLo := l.Lo.(*IntLit)
	hi, okHi := l.Hi.(*IntLit)
	if !okLo || !okHi || l.Step <= 0 {
		return 0
	}
	n := hi.Val - lo.Val
	if n <= 0 {
		return 0
	}
	return (n + l.Step - 1) / l.Step
}
