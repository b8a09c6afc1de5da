package kdsl

import "s2fa/internal/compile"

// frontend is the lexer and parser state one compilation reuses: the
// token buffer, the identifier interner, and slab arenas for the hottest
// AST node types (integer literals dominate — every static table
// element is one — followed by identifier references and binary/index
// expressions). frontends pools them, so repeated compilations stop
// re-allocating the buffers whoever the caller is.
type frontend struct {
	toks    []Token
	strings compile.Interner
	nodes   astSlabs
}

var frontends = compile.NewPool[frontend]()

// astSlabs backs an AST's hottest node types. CompileSource parses into
// the pooled frontend's slabs and resets them once the bytecode class is
// built, which retains nothing from the AST; a parse into fresh slabs
// yields an AST that lives as long as its caller keeps it.
type astSlabs struct {
	ints    compile.Slab[IntLit]
	floats  compile.Slab[FloatLit]
	idents  compile.Slab[Ident]
	bins    compile.Slab[BinExpr]
	indexes compile.Slab[IndexExpr]
}

// reset recycles the arenas; no node handed out before may be used
// afterwards.
func (s *astSlabs) reset() {
	s.ints.Reset()
	s.floats.Reset()
	s.idents.Reset()
	s.bins.Reset()
	s.indexes.Reset()
}

// parse lexes src into the frontend's token buffer and parses it,
// allocating the hottest node types from nodes.
func (fe *frontend) parse(src string, nodes *astSlabs) (*ClassDef, error) {
	toks, err := lexTokens(src, fe.toks, &fe.strings)
	if err != nil {
		return nil, err
	}
	fe.toks = toks
	p := &parser{toks: toks, nodes: nodes}
	cls, err := p.classDef()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, errf(p.cur().Pos, "unexpected %q after class definition", p.cur().Text)
	}
	return cls, nil
}

func (p *parser) newIntLit() *IntLit       { return p.nodes.ints.New() }
func (p *parser) newFloatLit() *FloatLit   { return p.nodes.floats.New() }
func (p *parser) newIdent() *Ident         { return p.nodes.idents.New() }
func (p *parser) newBinExpr() *BinExpr     { return p.nodes.bins.New() }
func (p *parser) newIndexExpr() *IndexExpr { return p.nodes.indexes.New() }
