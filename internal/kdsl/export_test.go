package kdsl

// Parse parses one kernel class definition from source text. The AST
// owns its node storage and stays valid for as long as the caller keeps
// it.
func Parse(src string) (*ClassDef, error) {
	fe := frontends.Get()
	defer frontends.Put(fe)
	return fe.parse(src, new(astSlabs))
}

// Lex tokenizes the whole input, returning the token stream or the first
// lexical error.
func Lex(src string) ([]Token, error) {
	fe := frontends.Get()
	defer frontends.Put(fe)
	return lexTokens(src, nil, &fe.strings)
}
