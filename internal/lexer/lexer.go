// Package lexer tokenizes LDL1 source text.
//
// The concrete syntax follows §2.1 of the paper: variables start with an
// upper-case letter or underscore, constants and predicate/function symbols
// with a lower-case letter; `{...}` writes enumerated sets, `<X>` grouping,
// `<-` separates head from body, `not`/`~`/`¬` negate, `%` and `#` start
// line comments, and `?-` introduces a query.
package lexer

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"

	"ldl1/internal/lderr"
)

// Type enumerates token types.
type Type uint8

// Token types.
const (
	EOF Type = iota
	Ident
	Variable
	Int
	String
	LParen
	RParen
	LBrace
	RBrace
	Less    // <
	Greater // >
	Comma
	Dot
	Arrow    // <-
	Not      // not, ~, ¬
	Eq       // =
	Neq      // /=, \=, !=
	Leq      // <=, =<
	Geq      // >=
	Plus     // +
	Minus    // -
	Star     // *
	Slash    // /
	QueryTok // ?-
	LBracket // [
	RBracket // ]
	Bar      // |
)

func (t Type) String() string {
	switch t {
	case EOF:
		return "end of input"
	case Ident:
		return "identifier"
	case Variable:
		return "variable"
	case Int:
		return "integer"
	case String:
		return "string"
	case LParen:
		return "'('"
	case RParen:
		return "')'"
	case LBrace:
		return "'{'"
	case RBrace:
		return "'}'"
	case Less:
		return "'<'"
	case Greater:
		return "'>'"
	case Comma:
		return "','"
	case Dot:
		return "'.'"
	case Arrow:
		return "'<-'"
	case Not:
		return "'not'"
	case Eq:
		return "'='"
	case Neq:
		return "'/='"
	case Leq:
		return "'<='"
	case Geq:
		return "'>='"
	case Plus:
		return "'+'"
	case Minus:
		return "'-'"
	case Star:
		return "'*'"
	case Slash:
		return "'/'"
	case QueryTok:
		return "'?-'"
	case LBracket:
		return "'['"
	case RBracket:
		return "']'"
	case Bar:
		return "'|'"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Token is a lexed token with its source position.
type Token struct {
	Type Type
	Text string
	Line int
	Col  int
}

func (t Token) String() string {
	if t.Text != "" {
		return fmt.Sprintf("%s %q", t.Type, t.Text)
	}
	return t.Type.String()
}

// Error is a lexical error with position information.  It is an alias of
// lderr.ParseError, so errors.As against *lderr.ParseError catches lexical
// and syntactic errors alike.
type Error = lderr.ParseError

// Lexer scans LDL1 source text.
type Lexer struct {
	src       string
	pos       int
	line, col int
}

// New creates a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Tokenize scans the whole input, returning all tokens (excluding the
// trailing EOF) or the first error.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var out []Token
	for {
		tok, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if tok.Type == EOF {
			return out, nil
		}
		out = append(out, tok)
	}
}

func (l *Lexer) peek() rune {
	if l.pos >= len(l.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *Lexer) advance() rune {
	r, size := utf8.DecodeRuneInString(l.src[l.pos:])
	l.pos += size
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *Lexer) errf(format string, args ...interface{}) error {
	return &Error{Line: l.line, Col: l.col, Msg: fmt.Sprintf(format, args...)}
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	mk := func(t Type, text string) Token {
		return Token{Type: t, Text: text, Line: line, Col: col}
	}
	if l.pos >= len(l.src) {
		return mk(EOF, ""), nil
	}
	r := l.peek()
	switch {
	case r == '(':
		l.advance()
		return mk(LParen, "("), nil
	case r == ')':
		l.advance()
		return mk(RParen, ")"), nil
	case r == '{':
		l.advance()
		return mk(LBrace, "{"), nil
	case r == '}':
		l.advance()
		return mk(RBrace, "}"), nil
	case r == '[':
		l.advance()
		return mk(LBracket, "["), nil
	case r == ']':
		l.advance()
		return mk(RBracket, "]"), nil
	case r == '|':
		l.advance()
		return mk(Bar, "|"), nil
	case r == ',':
		l.advance()
		return mk(Comma, ","), nil
	case r == '.':
		l.advance()
		return mk(Dot, "."), nil
	case r == '+':
		l.advance()
		return mk(Plus, "+"), nil
	case r == '*':
		l.advance()
		return mk(Star, "*"), nil
	case r == '-':
		l.advance()
		return mk(Minus, "-"), nil
	case r == '~', r == '¬':
		l.advance()
		return mk(Not, string(r)), nil
	case r == '<':
		l.advance()
		switch l.peek() {
		case '-':
			l.advance()
			return mk(Arrow, "<-"), nil
		case '=':
			l.advance()
			return mk(Leq, "<="), nil
		}
		return mk(Less, "<"), nil
	case r == '>':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(Geq, ">="), nil
		}
		return mk(Greater, ">"), nil
	case r == '=':
		l.advance()
		if l.peek() == '<' {
			l.advance()
			return mk(Leq, "=<"), nil
		}
		return mk(Eq, "="), nil
	case r == '/':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(Neq, "/="), nil
		}
		return mk(Slash, "/"), nil
	case r == '\\':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(Neq, "\\="), nil
		}
		return Token{}, l.errf("unexpected character %q", r)
	case r == '!':
		l.advance()
		if l.peek() == '=' {
			l.advance()
			return mk(Neq, "!="), nil
		}
		return Token{}, l.errf("unexpected character %q", r)
	case r == '?':
		l.advance()
		if l.peek() == '-' {
			l.advance()
		}
		return mk(QueryTok, "?-"), nil
	case r == '"':
		return l.lexString(mk)
	case unicode.IsDigit(r):
		return l.lexInt(mk)
	case r == '_' || unicode.IsUpper(r):
		start := l.pos
		for l.pos < len(l.src) && isIdentRune(l.peek()) {
			l.advance()
		}
		return mk(Variable, l.src[start:l.pos]), nil
	case unicode.IsLower(r):
		start := l.pos
		for l.pos < len(l.src) && isIdentRune(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if text == "not" {
			return mk(Not, text), nil
		}
		return mk(Ident, text), nil
	}
	return Token{}, l.errf("unexpected character %q", r)
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%' || r == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func (l *Lexer) lexInt(mk func(Type, string) Token) (Token, error) {
	start := l.pos
	for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
	return mk(Int, l.src[start:l.pos]), nil
}

// lexString reads a double-quoted string with Go's escape sequences: the
// inverse of term.Str's strconv.Quote rendering, so every string the engine
// prints reads back as itself.
func (l *Lexer) lexString(mk func(Type, string) Token) (Token, error) {
	start := l.pos
	l.advance() // opening quote
	for {
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated string literal")
		}
		switch l.advance() {
		case '"':
			text, err := strconv.Unquote(l.src[start:l.pos])
			if err != nil {
				return Token{}, l.errf("invalid escape in string literal")
			}
			return mk(String, text), nil
		case '\\':
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated escape in string literal")
			}
			l.advance()
		case '\n':
			return Token{}, l.errf("newline in string literal")
		}
	}
}
