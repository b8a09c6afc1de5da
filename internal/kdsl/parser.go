package kdsl

import (
	"strconv"
	"strings"

	"s2fa/internal/cir"
)

// Parse parses one kernel class definition from source text. The AST
// owns its node storage and stays valid for as long as the caller keeps
// it.
func Parse(src string) (*ClassDef, error) {
	fe := frontends.Get()
	defer frontends.Put(fe)
	return fe.parse(src, new(astSlabs))
}

type parser struct {
	toks []Token
	pos  int
	// nodes backs the hottest AST node types (see frontend.go).
	nodes *astSlabs
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().Kind == TokEOF }

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) isPunct(text string) bool {
	return p.cur().Kind == TokPunct && p.cur().Text == text
}

func (p *parser) isKeyword(text string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Text == text
}

func (p *parser) acceptPunct(text string) bool {
	if p.isPunct(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	if !p.acceptPunct(text) {
		return errf(p.cur().Pos, "expected %q, found %q", text, p.cur().Text)
	}
	return nil
}

func (p *parser) expectKeyword(text string) error {
	if !p.isKeyword(text) {
		return errf(p.cur().Pos, "expected %q, found %q", text, p.cur().Text)
	}
	p.advance()
	return nil
}

func (p *parser) expectIdent() (Token, error) {
	if p.cur().Kind != TokIdent {
		return Token{}, errf(p.cur().Pos, "expected identifier, found %q", p.cur().Text)
	}
	return p.advance(), nil
}

// classDef := "class" ID "extends" "Accelerator" "[" type "," type "]" "{" member* "}"
func (p *parser) classDef() (*ClassDef, error) {
	pos := p.cur().Pos
	if err := p.expectKeyword("class"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("extends"); err != nil {
		return nil, err
	}
	base, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if base.Text != "Accelerator" {
		return nil, errf(base.Pos, "kernel classes must extend Accelerator[I, O], found %q", base.Text)
	}
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	inT, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	outT, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	cls := &ClassDef{Name: name.Text, InType: inT, OutType: outT, Pos: pos}
	for !p.isPunct("}") {
		switch {
		case p.isKeyword("val"):
			f, err := p.fieldDef()
			if err != nil {
				return nil, err
			}
			cls.Fields = append(cls.Fields, *f)
		case p.isKeyword("def"):
			m, err := p.methodDef()
			if err != nil {
				return nil, err
			}
			cls.Methods = append(cls.Methods, *m)
		default:
			return nil, errf(p.cur().Pos, "expected val or def, found %q", p.cur().Text)
		}
	}
	return cls, p.expectPunct("}")
}

// fieldDef := "val" ID ":" type "=" (literal | string | "Array" "(" literal,* ")")
func (p *parser) fieldDef() (*FieldDef, error) {
	pos := p.cur().Pos
	p.advance() // val
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	var t Type
	if p.cur().Kind == TokIdent && p.cur().Text == "String" {
		p.advance()
		t = Type{String: true}
	} else {
		t, err = p.parseType()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	f := &FieldDef{Name: name.Text, T: t, Pos: pos}
	switch {
	case p.cur().Kind == TokString:
		f.Str = p.advance().Text
	case p.cur().Kind == TokIdent && p.cur().Text == "Array":
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			e, err := p.literalExpr()
			if err != nil {
				return nil, err
			}
			f.Elems = append(f.Elems, e)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	default:
		e, err := p.literalExpr()
		if err != nil {
			return nil, err
		}
		f.Elems = []Expr{e}
	}
	return f, nil
}

// literalExpr parses a (possibly negated) scalar literal.
func (p *parser) literalExpr() (Expr, error) {
	pos := p.cur().Pos
	neg := false
	if p.isPunct("-") {
		p.advance()
		neg = true
	}
	switch p.cur().Kind {
	case TokInt:
		t := p.advance()
		text := strings.TrimSuffix(t.Text, "L")
		long := text != t.Text
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad integer literal %q", t.Text)
		}
		if neg {
			v = -v
		}
		e := p.newIntLit()
		e.Val, e.Long = v, long
		e.pos = pos
		return e, nil
	case TokFloat:
		t := p.advance()
		text := t.Text
		single := false
		if strings.HasSuffix(text, "f") || strings.HasSuffix(text, "F") {
			single = true
			text = text[:len(text)-1]
		}
		text = strings.TrimSuffix(strings.TrimSuffix(text, "d"), "D")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float literal %q", t.Text)
		}
		if neg {
			v = -v
		}
		e := p.newFloatLit()
		e.Val, e.Single = v, single
		e.pos = pos
		return e, nil
	case TokChar:
		if neg {
			return nil, errf(pos, "cannot negate a character literal")
		}
		t := p.advance()
		e := &CharLit{Val: []rune(t.Text)[0]}
		e.pos = pos
		return e, nil
	case TokKeyword:
		if neg {
			return nil, errf(pos, "cannot negate %q", p.cur().Text)
		}
		if p.cur().Text == "true" || p.cur().Text == "false" {
			t := p.advance()
			e := &BoolLit{Val: t.Text == "true"}
			e.pos = pos
			return e, nil
		}
	}
	return nil, errf(p.cur().Pos, "expected literal, found %q", p.cur().Text)
}

// methodDef := "def" ID "(" params ")" ":" type "=" block
func (p *parser) methodDef() (*MethodDef, error) {
	pos := p.cur().Pos
	p.advance() // def
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	m := &MethodDef{Name: name.Text, Pos: pos}
	if !p.isPunct(")") {
		for {
			pn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, Param{Name: pn.Text, T: pt, Pos: pn.Pos})
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	m.Ret, err = p.parseType()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	m.Body, err = p.block()
	return m, err
}

// parseType := prim | "Array" "[" prim "]" | "(" type ("," type)+ ")"
func (p *parser) parseType() (Type, error) {
	if p.acceptPunct("(") {
		var fields []Type
		for {
			t, err := p.parseType()
			if err != nil {
				return Type{}, err
			}
			fields = append(fields, t)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return Type{}, err
		}
		if len(fields) < 2 || len(fields) > 4 {
			return Type{}, errf(p.cur().Pos, "tuple arity %d unsupported (2..4)", len(fields))
		}
		for _, f := range fields {
			if f.IsTuple() {
				return Type{}, errf(p.cur().Pos, "nested tuples are unsupported (implement an S2FA class template instead)")
			}
		}
		return Type{Tuple: fields}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return Type{}, err
	}
	if name.Text == "Array" {
		if err := p.expectPunct("["); err != nil {
			return Type{}, err
		}
		elem, err := p.parseType()
		if err != nil {
			return Type{}, err
		}
		if err := p.expectPunct("]"); err != nil {
			return Type{}, err
		}
		if elem.Array || elem.IsTuple() {
			return Type{}, errf(name.Pos, "only arrays of primitives are supported")
		}
		return Type{Kind: elem.Kind, Array: true}, nil
	}
	k, ok := primKind(name.Text)
	if !ok {
		return Type{}, errf(name.Pos, "unknown type %q (supported: primitives, Array[T], tuples)", name.Text)
	}
	return Type{Kind: k}, nil
}

func primKind(name string) (cir.Kind, bool) {
	switch name {
	case "Boolean":
		return cir.Bool, true
	case "Char":
		return cir.Char, true
	case "Short":
		return cir.Short, true
	case "Int":
		return cir.Int, true
	case "Long":
		return cir.Long, true
	case "Float":
		return cir.Float, true
	case "Double":
		return cir.Double, true
	}
	return cir.Void, false
}

// block := "{" stmt* "}"
func (p *parser) block() ([]Stmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.isPunct("}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		p.acceptPunct(";")
	}
	return stmts, p.expectPunct("}")
}

func (p *parser) stmt() (Stmt, error) {
	pos := p.cur().Pos
	switch {
	case p.isKeyword("val") || p.isKeyword("var"):
		mutable := p.cur().Text == "var"
		p.advance()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		t, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		s := &DeclStmt{Mutable: mutable, Name: name.Text, T: t, Init: init}
		s.pos = pos
		return s, nil
	case p.isKeyword("while"):
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		s := &WhileStmt{Cond: cond, Body: body}
		s.pos = pos
		return s, nil
	case p.isKeyword("for"):
		return p.forStmt(pos)
	case p.isKeyword("if"):
		return p.ifStmt(pos)
	case p.isKeyword("return"):
		p.advance()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s := &ReturnStmt{E: e}
		s.pos = pos
		return s, nil
	}
	// Expression or assignment.
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.isPunct("=") {
		p.advance()
		switch e.(type) {
		case *Ident, *IndexExpr:
		default:
			return nil, errf(pos, "invalid assignment target")
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		s := &AssignStmt{Target: e, Value: v}
		s.pos = pos
		return s, nil
	}
	s := &ExprStmt{E: e}
	s.pos = pos
	return s, nil
}

// forStmt := "for" "(" ID "<-" expr ("until"|"to") expr ")" block
func (p *parser) forStmt(pos Pos) (Stmt, error) {
	p.advance() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("<-"); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	var incl bool
	switch {
	case p.isKeyword("until"):
		p.advance()
	case p.isKeyword("to"):
		p.advance()
		incl = true
	default:
		return nil, errf(p.cur().Pos, "expected until/to in for generator")
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &ForStmt{Var: v.Text, Lo: lo, Hi: hi, Incl: incl, Body: body}
	s.pos = pos
	return s, nil
}

func (p *parser) ifStmt(pos Pos) (Stmt, error) {
	p.advance() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{Cond: cond, Then: then}
	s.pos = pos
	if p.isKeyword("else") {
		p.advance()
		if p.isKeyword("if") {
			nested, err := p.ifStmt(p.cur().Pos)
			if err != nil {
				return nil, err
			}
			s.Else = []Stmt{nested}
		} else {
			s.Else, err = p.block()
			if err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Operator precedence, low to high.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

var binOps = map[string]cir.BinOp{
	"||": cir.LOr, "&&": cir.LAnd, "|": cir.Or, "^": cir.Xor, "&": cir.And,
	"==": cir.Eq, "!=": cir.Ne, "<": cir.Lt, "<=": cir.Le, ">": cir.Gt, ">=": cir.Ge,
	"<<": cir.Shl, ">>": cir.Shr, "+": cir.Add, "-": cir.Sub, "*": cir.Mul, "/": cir.Div, "%": cir.Rem,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(0) }

func (p *parser) binExpr(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.unaryExpr()
	}
	left, err := p.binExpr(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, opText := range precLevels[level] {
			if p.isPunct(opText) {
				pos := p.cur().Pos
				p.advance()
				right, err := p.binExpr(level + 1)
				if err != nil {
					return nil, err
				}
				e := p.newBinExpr()
				e.Op, e.L, e.R = binOps[opText], left, right
				e.pos = pos
				left = e
				matched = true
				break
			}
		}
		if !matched {
			return left, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	pos := p.cur().Pos
	switch {
	case p.isPunct("-"):
		p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		e := &UnExpr{Op: cir.Neg, X: x}
		e.pos = pos
		return e, nil
	case p.isPunct("!"):
		p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		e := &UnExpr{Op: cir.Not, X: x}
		e.pos = pos
		return e, nil
	case p.isPunct("~"):
		p.advance()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		e := &UnExpr{Op: cir.BitNot, X: x}
		e.pos = pos
		return e, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.isPunct("."):
			p.advance()
			sel, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			e, err = p.selector(e, sel)
			if err != nil {
				return nil, err
			}
		case p.isPunct("(") && p.pos > 0 && p.cur().Pos.Line == p.toks[p.pos-1].Pos.Line:
			// Array indexing: a(i). Like Scala, an opening parenthesis
			// on a NEW line starts a new statement (tuple/parenthesized
			// expression) rather than continuing this one as an index.
			pos := p.cur().Pos
			p.advance()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			ix := p.newIndexExpr()
			ix.X, ix.Idx = e, idx
			ix.pos = pos
			e = ix
		default:
			return e, nil
		}
	}
}

var castSelectors = map[string]cir.Kind{
	"toInt": cir.Int, "toLong": cir.Long, "toFloat": cir.Float,
	"toDouble": cir.Double, "toChar": cir.Char, "toShort": cir.Short,
}

func (p *parser) selector(x Expr, sel Token) (Expr, error) {
	if k, ok := castSelectors[sel.Text]; ok {
		e := &CastExpr{X: x, To: k}
		e.pos = sel.Pos
		return e, nil
	}
	if sel.Text == "length" {
		e := &LenExpr{X: x}
		e.pos = sel.Pos
		return e, nil
	}
	if len(sel.Text) == 2 && sel.Text[0] == '_' && sel.Text[1] >= '1' && sel.Text[1] <= '4' {
		e := &TupleField{X: x, Field: int(sel.Text[1] - '1')}
		e.pos = sel.Pos
		return e, nil
	}
	return nil, errf(sel.Pos, "unsupported selector %q", sel.Text)
}

func (p *parser) primaryExpr() (Expr, error) {
	pos := p.cur().Pos
	switch {
	case p.cur().Kind == TokInt, p.cur().Kind == TokFloat, p.cur().Kind == TokChar,
		p.isKeyword("true"), p.isKeyword("false"):
		return p.literalExpr()
	case p.isKeyword("new"):
		p.advance()
		arr, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if arr.Text != "Array" {
			return nil, errf(arr.Pos, "only `new Array[T](n)` allocations are supported (paper §3.3)")
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if elem.Array || elem.IsTuple() {
			return nil, errf(arr.Pos, "only arrays of primitives are supported")
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		ln, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		e := &NewArrayExpr{Elem: elem.Kind, Len: ln}
		e.pos = pos
		return e, nil
	case p.cur().Kind == TokIdent && p.cur().Text == "Math":
		p.advance()
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var args []Expr
		if !p.isPunct(")") {
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.acceptPunct(",") {
					break
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		e := &MathCall{Name: name.Text, Args: args}
		e.pos = pos
		return e, nil
	case p.cur().Kind == TokIdent:
		t := p.advance()
		e := p.newIdent()
		e.Name = t.Text
		e.pos = pos
		return e, nil
	case p.isPunct("("):
		p.advance()
		first, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.isPunct(",") {
			elems := []Expr{first}
			for p.acceptPunct(",") {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			e := &TupleExpr{Elems: elems}
			e.pos = pos
			return e, nil
		}
		return first, p.expectPunct(")")
	}
	return nil, errf(pos, "unexpected %q in expression", p.cur().Text)
}
