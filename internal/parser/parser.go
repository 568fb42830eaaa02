// Package parser builds LDL1 programs and queries from source text.
//
// Grammar (see §2.1 and §4 of the paper):
//
//	unit    := { rule | query }
//	rule    := literal [ "<-" literal { "," literal } ] "."
//	query   := "?-" literal { "," literal } "."
//	literal := [ "not" ] ( atom | expr compop expr )
//	atom    := IDENT [ "(" [ expr { "," expr } ] ")" ]
//	compop  := "=" | "/=" | "<" | "<=" | ">" | ">="
//	expr    := mul { ("+" | "-") mul }
//	mul     := unary { ("*" | "/") unary }
//	unary   := "-" INT | "-" unary | primary
//	primary := INT | STRING | VAR | IDENT [ "(" [ expr { "," expr } ] ")" ]
//	         | "{" [ expr { "," expr } ] "}"      (enumerated set)
//	         | "<" expr ">"                       (grouping)
//	         | "(" expr { "," expr } ")"          (tuple / parenthesis)
//
// IDENT is a bare name (john) or any text between single quotes ('John
// Smith'); the lexer reads both as one identifier token.
//
// Arithmetic operators build compound terms with functors "+", "-", "*",
// "/"; the built-in evaluator interprets them when ground.  A multi-element
// parenthesized list builds a compound with the reserved functor "tuple"
// (§4.2); a single-element one is plain parenthesization.
package parser

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"ldl1/internal/ast"
	"ldl1/internal/lderr"
	"ldl1/internal/lexer"
	"ldl1/internal/term"
)

// Query is a conjunctive query ?- l1, ..., ln.
type Query struct {
	Body []ast.Literal
}

func (q Query) String() string {
	s := "?- "
	for i, l := range q.Body {
		if i > 0 {
			s += ", "
		}
		s += l.String()
	}
	return s + "."
}

// Unit is a parsed source unit: a program plus any queries it contains.
type Unit struct {
	Program *ast.Program
	Queries []Query
}

// Error is a parse error with position information.  It is an alias of
// lderr.ParseError: callers branch on parse failures with
// errors.As(err, new(*lderr.ParseError)) regardless of whether the lexer
// or the parser rejected the source.
type Error = lderr.ParseError

type parser struct {
	lx *lexer.Lexer
	// tok is the current token; past the last one, EOF at the last one's
	// position.  done is set once tok is that EOF, and lexErr once the
	// lexer failed, which also ends the tokens.
	tok    lexer.Token
	done   bool
	lexErr error
	anon   int // counter for renaming anonymous variables apart
	// varPos records the first source occurrence of each variable while a
	// rule is being parsed (nil outside rule parsing); rule() attaches it
	// to the produced ast.Rule for variable-level diagnostics.
	varPos map[term.Var]ast.Pos
}

// posOf converts a token position to an ast.Pos.
func posOf(t lexer.Token) ast.Pos { return ast.Pos{Line: t.Line, Col: t.Col} }

// newParser returns a parser over src that pulls its tokens from the lexer
// one at a time.
func newParser(src string) *parser {
	p := &parser{lx: lexer.New(src)}
	p.advance()
	return p
}

// advance reads the next token.
func (p *parser) advance() {
	if p.done {
		return
	}
	tok, err := p.lx.Next()
	if err != nil {
		p.lexErr, tok = err, lexer.Token{Type: lexer.EOF}
	}
	if tok.Type == lexer.EOF {
		tok.Line, tok.Col, p.done = p.tok.Line, p.tok.Col, true
	}
	p.tok = tok
}

// finish returns the outcome of a parse that ended with err: the source's
// first lexical error if it has one, wherever the parse stopped, else err.
func (p *parser) finish(err error) error {
	for !p.done {
		p.advance()
	}
	if p.lexErr != nil {
		return p.lexErr
	}
	return err
}

// Parse parses LDL1 source text into a Unit.
func Parse(src string) (*Unit, error) {
	p := newParser(src)
	unit, err := p.unit(strings.Count(src, "."))
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return unit, nil
}

// unit parses rules and queries up to the end of the source; the program's
// rule slice is made once, for at most n of them.
func (p *parser) unit(n int) (*Unit, error) {
	unit := &Unit{Program: &ast.Program{Rules: make([]ast.Rule, 0, n)}}
	for !p.at(lexer.EOF) {
		if p.at(lexer.QueryTok) {
			p.next()
			body, err := p.literals()
			if err != nil {
				return nil, err
			}
			if err := p.expect(lexer.Dot); err != nil {
				return nil, err
			}
			unit.Queries = append(unit.Queries, Query{Body: body})
			continue
		}
		r, err := p.rule()
		if err != nil {
			return nil, err
		}
		unit.Program.Add(r)
	}
	return unit, nil
}

// ParseProgram parses source expected to contain only rules and facts.
func ParseProgram(src string) (*ast.Program, error) {
	unit, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(unit.Queries) != 0 {
		at := unit.Queries[0].Body[0].Pos
		return nil, &Error{Line: at.Line, Col: at.Col, Msg: "unexpected query in program source"}
	}
	return unit.Program, nil
}

// MustParseProgram is ParseProgram that panics on error; intended for tests
// and package-internal literals.
func MustParseProgram(src string) *ast.Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseQuery parses a single query, with or without the leading "?-" and
// trailing ".".
func ParseQuery(src string) (Query, error) {
	p := newParser(src)
	body, err := p.query()
	if err = p.finish(err); err != nil {
		return Query{}, err
	}
	return Query{Body: body}, nil
}

// query parses the body of a single query.
func (p *parser) query() ([]ast.Literal, error) {
	if p.at(lexer.QueryTok) {
		p.next()
	}
	body, err := p.literals()
	if err != nil {
		return nil, err
	}
	if p.at(lexer.Dot) {
		p.next()
	}
	if !p.at(lexer.EOF) {
		return nil, p.errf("trailing input after query")
	}
	return body, nil
}

// ParseTerm parses a single term.
func ParseTerm(src string) (term.Term, error) {
	p := newParser(src)
	t, err := p.expr()
	if err == nil && !p.at(lexer.EOF) {
		err = p.errf("trailing input after term")
	}
	if err = p.finish(err); err != nil {
		return nil, err
	}
	return t, nil
}

func (p *parser) cur() lexer.Token { return p.tok }

func (p *parser) at(t lexer.Type) bool { return p.cur().Type == t }

func (p *parser) next() lexer.Token {
	t := p.tok
	p.advance()
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	c := p.cur()
	return &Error{Line: c.Line, Col: c.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(t lexer.Type) error {
	if !p.at(t) {
		return p.errf("expected %s, found %s", t, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) rule() (ast.Rule, error) {
	start := p.cur()
	p.varPos = map[term.Var]ast.Pos{}
	defer func() { p.varPos = nil }()
	head, err := p.literal()
	if err != nil {
		return ast.Rule{}, err
	}
	if head.Negated {
		return ast.Rule{}, p.errf("rule head may not be negated")
	}
	r := ast.Rule{Head: head, Pos: posOf(start), VarPos: p.varPos}
	if p.at(lexer.Arrow) {
		p.next()
		// An empty body before '.' is permitted ("head <- ." is a fact).
		if !p.at(lexer.Dot) {
			r.Body, err = p.literals()
			if err != nil {
				return ast.Rule{}, err
			}
		}
	}
	if err := p.expect(lexer.Dot); err != nil {
		return ast.Rule{}, err
	}
	return r, nil
}

func (p *parser) literals() ([]ast.Literal, error) {
	var out []ast.Literal
	for {
		l, err := p.literal()
		if err != nil {
			return nil, err
		}
		out = append(out, l)
		if !p.at(lexer.Comma) {
			return out, nil
		}
		p.next()
	}
}

// compPred maps comparison token types to built-in predicate names.
var compPred = map[lexer.Type]string{
	lexer.Eq:      "=",
	lexer.Neq:     "/=",
	lexer.Less:    "<",
	lexer.Leq:     "<=",
	lexer.Greater: ">",
	lexer.Geq:     ">=",
}

func (p *parser) literal() (ast.Literal, error) {
	start := posOf(p.cur())
	neg := false
	if p.at(lexer.Not) {
		neg = true
		p.next()
	}
	first := p.cur()
	left, err := p.expr()
	if err != nil {
		return ast.Literal{}, err
	}
	if pred, ok := compPred[p.cur().Type]; ok {
		p.next()
		right, err := p.expr()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Literal{Negated: neg, Pred: pred, Args: []term.Term{left, right}, Pos: start}, nil
	}
	// A literal is a predicate symbol over terms (§2.1): the expression must
	// be the identifier application it began with.  Anything else — an
	// arithmetic expression, a list, a set pattern, a negation — is a term,
	// whose functor is not a predicate.
	if first.Type == lexer.Ident {
		switch t := left.(type) {
		case term.Atom:
			return ast.Literal{Negated: neg, Pred: string(t), Pos: start}, nil
		case *term.Compound:
			if t.Functor == first.Text {
				return ast.Literal{Negated: neg, Pred: t.Functor, Args: t.Args, Pos: start}, nil
			}
		}
	}
	return ast.Literal{}, &Error{Line: first.Line, Col: first.Col, Msg: fmt.Sprintf("expected a predicate, found term %s", left)}
}

func (p *parser) expr() (term.Term, error) {
	left, err := p.mul()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.Plus) || p.at(lexer.Minus) {
		op := "+"
		if p.at(lexer.Minus) {
			op = "-"
		}
		p.next()
		right, err := p.mul()
		if err != nil {
			return nil, err
		}
		left = term.NewCompound(op, left, right)
	}
	return left, nil
}

func (p *parser) mul() (term.Term, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(lexer.Star) || p.at(lexer.Slash) {
		op := "*"
		if p.at(lexer.Slash) {
			op = "/"
		}
		p.next()
		right, err := p.unary()
		if err != nil {
			return nil, err
		}
		left = term.NewCompound(op, left, right)
	}
	return left, nil
}

func (p *parser) unary() (term.Term, error) {
	if !p.at(lexer.Minus) {
		return p.primary()
	}
	p.next()
	if p.at(lexer.Int) {
		// One signed literal, so -9223372036854775808 is in range.
		return p.integer("-")
	}
	t, err := p.unary()
	if err != nil {
		return nil, err
	}
	if n, ok := t.(term.Int); ok && n != math.MinInt64 {
		return term.Int(-n), nil
	}
	return term.NewCompound("neg", t), nil
}

// integer parses the current integer token with sign prepended.
func (p *parser) integer(sign string) (term.Term, error) {
	tok := p.cur()
	n, err := strconv.ParseInt(sign+tok.Text, 10, 64)
	if err != nil {
		return nil, p.errf("integer out of range: %s%s", sign, tok.Text)
	}
	p.next()
	return term.Int(n), nil
}

func (p *parser) primary() (term.Term, error) {
	switch tok := p.cur(); tok.Type {
	case lexer.Int:
		return p.integer("")
	case lexer.String:
		p.next()
		return term.Str(tok.Text), nil
	case lexer.Variable:
		p.next()
		v := term.Var(tok.Text)
		if tok.Text == "_" {
			p.anon++
			v = term.Var(fmt.Sprintf("_G%d", p.anon))
		}
		if p.varPos != nil {
			if _, seen := p.varPos[v]; !seen {
				p.varPos[v] = posOf(tok)
			}
		}
		return v, nil
	case lexer.Ident:
		p.next()
		if !p.at(lexer.LParen) {
			return term.Atom(tok.Text), nil
		}
		p.next()
		if p.at(lexer.RParen) {
			p.next()
			return term.NewCompound(tok.Text), nil
		}
		args, err := p.exprList(lexer.RParen)
		if err != nil {
			return nil, err
		}
		return term.NewCompound(tok.Text, args...), nil
	case lexer.LBrace:
		p.next()
		if p.at(lexer.RBrace) {
			p.next()
			return term.EmptySet, nil
		}
		elems, err := p.exprList(lexer.RBrace)
		if err != nil {
			return nil, err
		}
		// Enumerated sets with ground elements are canonicalized now;
		// sets containing variables stay as a "set" pattern compound
		// that binding application will canonicalize (§2.1).
		ground := true
		for _, e := range elems {
			if !term.IsGround(e) {
				ground = false
				break
			}
		}
		if ground {
			return term.NewSet(elems...), nil
		}
		return term.NewCompound("$set", elems...), nil
	case lexer.LBracket:
		p.next()
		return p.list()
	case lexer.Less:
		p.next()
		inner, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(lexer.Greater); err != nil {
			return nil, err
		}
		return term.NewGroup(inner), nil
	case lexer.LParen:
		p.next()
		elems, err := p.exprList(lexer.RParen)
		if err != nil {
			return nil, err
		}
		if len(elems) == 1 {
			return elems[0], nil
		}
		return term.NewCompound("tuple", elems...), nil
	}
	return nil, p.errf("expected a term, found %s", p.cur())
}

// list parses the remainder of a list term after '[': the empty list [],
// [e1, ..., en] and [e1, ..., en | Tail].  Lists are the usual logic
// programming cons/nil structures (the paper's §2.1 remark: "LDL1 has
// lists ... handled in the usual manner").
func (p *parser) list() (term.Term, error) {
	if p.at(lexer.RBracket) {
		p.next()
		return term.EmptyList, nil
	}
	var elems []term.Term
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		elems = append(elems, e)
		if p.at(lexer.Comma) {
			p.next()
			continue
		}
		break
	}
	tail := term.Term(term.EmptyList)
	if p.at(lexer.Bar) {
		p.next()
		var err error
		tail, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(lexer.RBracket); err != nil {
		return nil, err
	}
	for i := len(elems) - 1; i >= 0; i-- {
		tail = term.Cons(elems[i], tail)
	}
	return tail, nil
}

func (p *parser) exprList(closer lexer.Type) ([]term.Term, error) {
	var out []term.Term
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.at(lexer.Comma) {
			p.next()
			continue
		}
		if err := p.expect(closer); err != nil {
			return nil, err
		}
		return out, nil
	}
}
