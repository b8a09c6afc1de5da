package kdsl

import (
	"fmt"
	"strings"

	"s2fa/internal/cir"
)

// Type is a kdsl type: a primitive scalar, an array of a primitive, a
// tuple of those, or String (allowed only for the `id` field, matching
// the Blaze programming model).
type Type struct {
	Kind   cir.Kind
	Array  bool
	Tuple  []Type
	String bool
}

// IsTuple reports whether the type is a tuple.
func (t Type) IsTuple() bool { return len(t.Tuple) > 0 }

// IsScalar reports whether the type is a primitive scalar.
func (t Type) IsScalar() bool { return !t.Array && !t.IsTuple() && !t.String }

// IsNumeric reports whether arithmetic applies.
func (t Type) IsNumeric() bool {
	return t.IsScalar() && t.Kind != cir.Bool && t.Kind != cir.Void
}

// Equal reports structural type equality.
func (t Type) Equal(o Type) bool {
	if t.Kind != o.Kind || t.Array != o.Array || t.String != o.String || len(t.Tuple) != len(o.Tuple) {
		return false
	}
	for i := range t.Tuple {
		if !t.Tuple[i].Equal(o.Tuple[i]) {
			return false
		}
	}
	return true
}

func (t Type) str() string {
	switch {
	case t.String:
		return "String"
	case t.IsTuple():
		parts := make([]string, len(t.Tuple))
		for i, f := range t.Tuple {
			parts[i] = f.str()
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case t.Array:
		return fmt.Sprintf("Array[%s]", scalaName(t.Kind))
	default:
		return scalaName(t.Kind)
	}
}

func scalaName(k cir.Kind) string {
	switch k {
	case cir.Bool:
		return "Boolean"
	case cir.Char:
		return "Char"
	case cir.Short:
		return "Short"
	case cir.Int:
		return "Int"
	case cir.Long:
		return "Long"
	case cir.Float:
		return "Float"
	case cir.Double:
		return "Double"
	}
	return k.String()
}

// Expr is a kdsl expression node. T is filled by the type checker.
type Expr interface {
	Pos() Pos
	Type() Type
	setType(Type)
}

type exprBase struct {
	pos Pos
	typ Type
}

func (e *exprBase) Pos() Pos       { return e.pos }
func (e *exprBase) Type() Type     { return e.typ }
func (e *exprBase) setType(t Type) { e.typ = t }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val  int64
	Long bool
}

// FloatLit is a floating literal.
type FloatLit struct {
	exprBase
	Val    float64
	Single bool // 1.5f
}

// CharLit is a character literal.
type CharLit struct {
	exprBase
	Val rune
}

// BoolLit is true/false.
type BoolLit struct {
	exprBase
	Val bool
}

// Ident references a local, parameter, or class field.
type Ident struct {
	exprBase
	Name string
}

// TupleField is the `x._k` accessor (k is 1-based in source, 0-based
// here).
type TupleField struct {
	exprBase
	X     Expr
	Field int
}

// IndexExpr is array indexing `a(i)`.
type IndexExpr struct {
	exprBase
	X   Expr
	Idx Expr
}

// LenExpr is `a.length`.
type LenExpr struct {
	exprBase
	X Expr
}

// BinExpr is a binary operation.
type BinExpr struct {
	exprBase
	Op   cir.BinOp
	L, R Expr
}

// UnExpr is a unary operation.
type UnExpr struct {
	exprBase
	Op cir.UnOp
	X  Expr
}

// CastExpr is `.toInt`, `.toDouble`, etc. The checker also inserts these
// for implicit numeric widening.
type CastExpr struct {
	exprBase
	X  Expr
	To cir.Kind
}

// MathCall is a java.lang.Math intrinsic call — the only library calls
// S2FA accepts (paper §3.3).
type MathCall struct {
	exprBase
	Name string
	Args []Expr
}

// NewArrayExpr is `new Array[T](n)` with compile-time-constant n.
type NewArrayExpr struct {
	exprBase
	Elem cir.Kind
	Len  Expr
	// ConstLen is resolved by the checker.
	ConstLen int
}

// TupleExpr constructs a tuple `(a, b)`.
type TupleExpr struct {
	exprBase
	Elems []Expr
}

// Stmt is a kdsl statement node.
type Stmt interface{ Pos() Pos }

type stmtBase struct{ pos Pos }

func (s *stmtBase) Pos() Pos { return s.pos }

// DeclStmt is `val x: T = e` / `var x: T = e`.
type DeclStmt struct {
	stmtBase
	Mutable bool
	Name    string
	T       Type
	Init    Expr
}

// AssignStmt is `x = e` or `a(i) = e`.
type AssignStmt struct {
	stmtBase
	Target Expr // Ident or IndexExpr
	Value  Expr
}

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// ForStmt is `for (i <- lo until hi)` (Incl for `to`).
type ForStmt struct {
	stmtBase
	Var  string
	Lo   Expr
	Hi   Expr
	Incl bool
	Body []Stmt
}

// IfStmt is a conditional.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ExprStmt is a bare expression; only legal as the final statement of a
// method body, where it is the return value.
type ExprStmt struct {
	stmtBase
	E Expr
}

// ReturnStmt is an explicit `return e` (equivalent to a final ExprStmt).
type ReturnStmt struct {
	stmtBase
	E Expr
}

// Param is a method parameter.
type Param struct {
	Name string
	T    Type
	Pos  Pos
}

// MethodDef is a method of the kernel class.
type MethodDef struct {
	Name   string
	Params []Param
	Ret    Type
	Body   []Stmt
	Pos    Pos
}

// FieldDef is a class-level `val` definition.
type FieldDef struct {
	Name string
	T    Type
	// Str holds a String field's value (only `id`).
	Str string
	// Elems holds literal elements for scalar (len 1) or Array(...)
	// initializers.
	Elems []Expr
	Pos   Pos
}

// ClassDef is a parsed kernel class.
type ClassDef struct {
	Name    string
	InType  Type
	OutType Type
	Fields  []FieldDef
	Methods []MethodDef
	Pos     Pos
}

// Method returns the named method, or nil.
func (c *ClassDef) Method(name string) *MethodDef {
	for i := range c.Methods {
		if c.Methods[i].Name == name {
			return &c.Methods[i]
		}
	}
	return nil
}

// Field returns the named field, or nil.
func (c *ClassDef) Field(name string) *FieldDef {
	for i := range c.Fields {
		if c.Fields[i].Name == name {
			return &c.Fields[i]
		}
	}
	return nil
}
