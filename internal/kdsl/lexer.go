package kdsl

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"s2fa/internal/compile"
)

// lexer tokenizes kdsl source text. It scans the source string directly
// (byte cursor, ASCII fast paths) and hands out tokens whose Text is a
// substring of the source, so a steady-state lex allocates only the
// token slice. Line/column positions count runes, exactly as the
// rune-slice lexer it replaced did, so diagnostics are byte-identical.
type lexer struct {
	src  string
	pos  int // byte offset
	line int
	col  int // rune column
	// intern canonicalizes identifier spellings so ASTs from repeated
	// compilations share one copy of each name.
	intern *compile.Interner
}

// Lex tokenizes the whole input, returning the token stream or the first
// lexical error.
func Lex(src string) ([]Token, error) {
	fe := frontends.Get()
	defer frontends.Put(fe)
	return lexTokens(src, nil, &fe.strings)
}

// lexTokens is Lex with a reusable token buffer (appended from length 0)
// and the interner identifier spellings go through.
func lexTokens(src string, toks []Token, intern *compile.Interner) ([]Token, error) {
	lx := lexer{src: src, line: 1, col: 1, intern: intern}
	toks = toks[:0]
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// peekByte returns the byte at the cursor (0 at EOF).
func (lx *lexer) peekByte() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

// peekRune returns the rune at the cursor (0 at EOF).
func (lx *lexer) peekRune() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	if b := lx.src[lx.pos]; b < utf8.RuneSelf {
		return rune(b)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos:])
	return r
}

// advance consumes one rune, maintaining the rune-counted line/column.
func (lx *lexer) advance() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	r := lx.peekRune()
	if r < utf8.RuneSelf {
		lx.pos++
	} else {
		_, n := utf8.DecodeRuneInString(lx.src[lx.pos:])
		lx.pos += n
	}
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

// advanceASCII consumes one byte known to be ASCII and not a newline.
func (lx *lexer) advanceASCII() {
	lx.pos++
	lx.col++
}

func (lx *lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		b := lx.src[lx.pos]
		switch {
		case b == ' ' || b == '\t' || b == '\r':
			lx.advanceASCII()
		case b == '\n':
			lx.pos++
			lx.line++
			lx.col = 1
		case b == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.advance()
			}
		case b == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			pos := lx.here()
			lx.advanceASCII()
			lx.advanceASCII()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.src[lx.pos] == '*' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/' {
					lx.advanceASCII()
					lx.advanceASCII()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return errf(pos, "unterminated block comment")
			}
		case b >= utf8.RuneSelf && unicode.IsSpace(lx.peekRune()):
			lx.advance()
		default:
			return nil
		}
	}
	return nil
}

// multi-char punctuation, longest first.
var puncts = []string{
	"<-", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
	"(", ")", "{", "}", "[", "]", ",", ":", ";", ".", "=",
	"<", ">", "+", "-", "*", "/", "%", "!", "&", "|", "^", "~",
}

func isIdentByte(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
}

func (lx *lexer) next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	pos := lx.here()
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: pos}, nil
	}
	r := lx.peekRune()
	switch {
	case unicode.IsLetter(r) || r == '_':
		start := lx.pos
		for lx.pos < len(lx.src) {
			if b := lx.src[lx.pos]; b < utf8.RuneSelf {
				if !isIdentByte(b) {
					break
				}
				lx.advanceASCII()
				continue
			}
			c := lx.peekRune()
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) {
				break
			}
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		if keywords[text] {
			return Token{Kind: TokKeyword, Text: text, Pos: pos}, nil
		}
		return Token{Kind: TokIdent, Text: lx.intern.InternString(text), Pos: pos}, nil
	case r >= '0' && r <= '9':
		return lx.number(pos), nil
	case unicode.IsDigit(r):
		return lx.number(pos), nil
	case r == '\'':
		return lx.charLit(pos)
	case r == '"':
		return lx.stringLit(pos)
	}
	for _, p := range puncts {
		if strings.HasPrefix(lx.src[lx.pos:], p) {
			lx.pos += len(p)
			lx.col += len(p)
			return Token{Kind: TokPunct, Text: p, Pos: pos}, nil
		}
	}
	return Token{}, errf(pos, "unexpected character %q", r)
}

// number scans an integer or float literal. The common case is all
// ASCII (byte-wise scan, token text is a source substring); non-ASCII
// Unicode digits are accepted exactly as the rune-based lexer did.
func (lx *lexer) number(pos Pos) Token {
	start := lx.pos
	isFloat := false
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c >= '0' && c <= '9':
			lx.advanceASCII()
		case c >= utf8.RuneSelf && unicode.IsDigit(lx.peekRune()):
			lx.advance()
		case c == '.' && !isFloat && lx.digitAt(1):
			isFloat = true
			lx.advanceASCII()
		case (c == 'e' || c == 'E') && lx.pos+1 < len(lx.src) &&
			(lx.digitAt(1) || lx.src[lx.pos+1] == '-' || lx.src[lx.pos+1] == '+'):
			isFloat = true
			lx.advanceASCII()
			if b := lx.peekByte(); b == '-' || b == '+' {
				lx.advanceASCII()
			}
		case c == 'f' || c == 'F' || c == 'L' || c == 'd' || c == 'D':
			lx.advanceASCII()
			if c != 'L' {
				isFloat = true
			}
			goto done
		default:
			goto done
		}
	}
done:
	kind := TokInt
	if isFloat {
		kind = TokFloat
	}
	return Token{Kind: kind, Text: lx.src[start:lx.pos], Pos: pos}
}

// digitAt reports whether the rune starting off bytes past the cursor is
// a Unicode digit.
func (lx *lexer) digitAt(off int) bool {
	if lx.pos+off >= len(lx.src) {
		return false
	}
	b := lx.src[lx.pos+off]
	if b < utf8.RuneSelf {
		return b >= '0' && b <= '9'
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.pos+off:])
	return unicode.IsDigit(r)
}

func (lx *lexer) charLit(pos Pos) (Token, error) {
	lx.advance() // opening quote
	if lx.pos >= len(lx.src) {
		return Token{}, errf(pos, "unterminated character literal")
	}
	r := lx.advance()
	if r == '\\' {
		if lx.pos >= len(lx.src) {
			return Token{}, errf(pos, "unterminated escape")
		}
		esc := lx.advance()
		switch esc {
		case 'n':
			r = '\n'
		case 't':
			r = '\t'
		case '0':
			r = 0
		case '\\', '\'':
			r = esc
		default:
			return Token{}, errf(pos, "unsupported escape \\%c", esc)
		}
	}
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '\'' {
		return Token{}, errf(pos, "unterminated character literal")
	}
	lx.advanceASCII()
	return Token{Kind: TokChar, Text: string(r), Pos: pos}, nil
}

func (lx *lexer) stringLit(pos Pos) (Token, error) {
	lx.advance() // opening quote
	start := lx.pos
	for lx.pos < len(lx.src) {
		if b := lx.src[lx.pos]; b == '"' {
			text := lx.src[start:lx.pos]
			lx.advanceASCII()
			return Token{Kind: TokString, Text: text, Pos: pos}, nil
		} else if b == '\n' {
			return Token{}, errf(pos, "newline in string literal")
		}
		lx.advance()
	}
	return Token{}, errf(pos, "unterminated string literal")
}
