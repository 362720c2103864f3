package colstore

import (
	"fmt"
	"strconv"
)

// The /v1/query expression language. A query is an optional filter,
// then an optional aggregation after '|':
//
//	query  = [ orExpr ] [ "|" agg ]
//	orExpr = andExpr { "or" andExpr }
//	andExpr= unary { "and" unary }
//	unary  = "not" unary | "(" orExpr ")" | cmp
//	cmp    = field ( "==" | "!=" | "<" | "<=" | ">" | ">=" ) value
//	       | field "in" ( INT ".." INT | "(" value { "," value } ")" )
//	agg    = "count" "(" ")" [ "by" field ]
//	       | "sum" "(" field ")" [ "by" field ]
//	       | "topk" "(" INT ")" "by" field
//	value  = STRING | INT
//
// Omitting the filter selects every row; omitting the aggregation
// means count(). So the empty query is "how many samples", and
//
//	family=="mirai" and day in 100..200 | count() by c2
//
// is the paper's "alive mirai C2s mid-study" shape. Parse is syntax
// only; field names and types are checked by Validate against the
// sample schema, so both the columnar engine and the row-at-a-time
// reference evaluator reject exactly the same queries with exactly
// the same messages.

// ParseError is a syntax or validation failure, safe to surface in a
// 400 body: Pos is the byte offset into the query string.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("pos %d: %s", e.Pos, e.Msg) }

func errf(pos int, format string, args ...any) *ParseError {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Expr is a filter node: *Cmp, *In, *Not, or *Logic.
type Expr interface{ exprNode() }

// Cmp is field OP value. Str holds string literals (IsStr), Int
// integer ones.
type Cmp struct {
	Field string
	Op    string // == != < <= > >=
	Str   string
	Int   int64
	IsStr bool
	pos   int
}

// In is field in 100..200 (IsRange) or field in (v1, v2, ...).
type In struct {
	Field   string
	IsRange bool
	Lo, Hi  int64
	Strs    []string
	Ints    []int64
	isStr   bool
	pos     int
}

// Not negates its operand.
type Not struct{ X Expr }

// Logic is X and/or Y.
type Logic struct {
	Op   string // and, or
	X, Y Expr
}

func (*Cmp) exprNode()   {}
func (*In) exprNode()    {}
func (*Not) exprNode()   {}
func (*Logic) exprNode() {}

// Agg is the aggregation stage. Fn is count, sum, or topk; Arg is
// sum's field; K is topk's cutoff; By is the group field ("" for a
// scalar count/sum).
type Agg struct {
	Fn  string
	Arg string
	K   int64
	By  string
	pos int
}

// Query is a parsed /v1/query expression.
type Query struct {
	Filter Expr // nil selects every row
	Agg    Agg  // Fn "count", By "" when the stage was omitted
}

// token kinds
const (
	tEOF = iota
	tIdent
	tInt
	tString
	tOp     // == != < <= > >=
	tLParen // (
	tRParen // )
	tComma
	tPipe
	tDotDot
)

type token struct {
	kind int
	pos  int
	text string // ident name, op text, decoded string, or int digits
	num  int64
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, *ParseError) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c >= '0' && c <= '9':
			start := l.pos
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
			digits := l.src[start:l.pos]
			n, err := strconv.ParseInt(digits, 10, 64)
			if err != nil {
				return nil, errf(start, "integer %q out of range", digits)
			}
			l.toks = append(l.toks, token{kind: tInt, pos: start, text: digits, num: n})
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
			start := l.pos
			for l.pos < len(l.src) && isIdentByte(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tIdent, pos: start, text: l.src[start:l.pos]})
		case c == '"':
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] != '"' {
				l.pos++
			}
			if l.pos >= len(l.src) {
				return nil, errf(start, "unterminated string literal")
			}
			l.toks = append(l.toks, token{kind: tString, pos: start, text: l.src[start+1 : l.pos]})
			l.pos++
		case c == '=':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.toks = append(l.toks, token{kind: tOp, pos: l.pos, text: "=="})
				l.pos += 2
			} else {
				return nil, errf(l.pos, "unexpected %q (did you mean ==?)", "=")
			}
		case c == '!':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
				l.toks = append(l.toks, token{kind: tOp, pos: l.pos, text: "!="})
				l.pos += 2
			} else {
				return nil, errf(l.pos, "unexpected %q (did you mean !=?)", "!")
			}
		case c == '<' || c == '>':
			op := string(c)
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				op += "="
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tOp, pos: l.pos - len(op), text: op})
		case c == '.':
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
				l.toks = append(l.toks, token{kind: tDotDot, pos: l.pos, text: ".."})
				l.pos += 2
			} else {
				return nil, errf(l.pos, "unexpected %q (ranges are written lo..hi)", ".")
			}
		case c == '(':
			l.toks = append(l.toks, token{kind: tLParen, pos: l.pos, text: "("})
			l.pos++
		case c == ')':
			l.toks = append(l.toks, token{kind: tRParen, pos: l.pos, text: ")"})
			l.pos++
		case c == ',':
			l.toks = append(l.toks, token{kind: tComma, pos: l.pos, text: ","})
			l.pos++
		case c == '|':
			l.toks = append(l.toks, token{kind: tPipe, pos: l.pos, text: "|"})
			l.pos++
		default:
			return nil, errf(l.pos, "unexpected character %q", string(c))
		}
	}
	l.toks = append(l.toks, token{kind: tEOF, pos: len(l.src)})
	return l.toks, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(kind int, what string) (token, *ParseError) {
	if t := p.cur(); t.kind != kind {
		return token{}, errf(t.pos, "expected %s, got %s", what, describe(t))
	}
	return p.next(), nil
}

func describe(t token) string {
	switch t.kind {
	case tEOF:
		return "end of query"
	case tString:
		return fmt.Sprintf("string %q", t.text)
	case tInt:
		return fmt.Sprintf("integer %s", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// Parse turns a query string into its AST. It never panics on any
// input (FuzzQueryParse); errors are *ParseError with a byte offset.
func Parse(src string) (*Query, error) {
	toks, lerr := lex(src)
	if lerr != nil {
		return nil, lerr
	}
	p := &parser{toks: toks}
	q := &Query{Agg: Agg{Fn: "count"}}

	if p.cur().kind != tEOF && p.cur().kind != tPipe {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Filter = e
	}
	if p.cur().kind == tPipe {
		p.next()
		agg, err := p.parseAgg()
		if err != nil {
			return nil, err
		}
		q.Agg = agg
	}
	if t := p.cur(); t.kind != tEOF {
		return nil, errf(t.pos, "unexpected %s after complete query", describe(t))
	}
	return q, nil
}

func (p *parser) parseOr() (Expr, *ParseError) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tIdent && p.cur().text == "or" {
		p.next()
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Logic{Op: "or", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseAnd() (Expr, *ParseError) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tIdent && p.cur().text == "and" {
		p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Logic{Op: "and", X: x, Y: y}
	}
	return x, nil
}

func (p *parser) parseUnary() (Expr, *ParseError) {
	switch t := p.cur(); {
	case t.kind == tIdent && t.text == "not":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{X: x}, nil
	case t.kind == tLParen:
		p.next()
		x, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return p.parseCmp()
	}
}

// reserved words can't be field names; catching them here keeps the
// error at the right spot ("expected a field name, got "by"").
var reserved = map[string]bool{
	"and": true, "or": true, "not": true, "in": true, "by": true,
	"count": true, "sum": true, "topk": true,
}

func (p *parser) parseField() (token, *ParseError) {
	t, err := p.expect(tIdent, "a field name")
	if err != nil {
		return token{}, err
	}
	if reserved[t.text] {
		return token{}, errf(t.pos, "expected a field name, got reserved word %q", t.text)
	}
	return t, nil
}

func (p *parser) parseCmp() (Expr, *ParseError) {
	f, err := p.parseField()
	if err != nil {
		return nil, err
	}
	switch t := p.cur(); {
	case t.kind == tOp:
		p.next()
		v := p.next()
		switch v.kind {
		case tString:
			return &Cmp{Field: f.text, Op: t.text, Str: v.text, IsStr: true, pos: f.pos}, nil
		case tInt:
			return &Cmp{Field: f.text, Op: t.text, Int: v.num, pos: f.pos}, nil
		default:
			return nil, errf(v.pos, "expected a string or integer literal, got %s", describe(v))
		}
	case t.kind == tIdent && t.text == "in":
		p.next()
		return p.parseIn(f)
	default:
		return nil, errf(t.pos, "expected a comparison operator or \"in\" after field %q, got %s", f.text, describe(t))
	}
}

func (p *parser) parseIn(f token) (Expr, *ParseError) {
	switch t := p.cur(); t.kind {
	case tInt:
		lo := p.next()
		if _, err := p.expect(tDotDot, `".."`); err != nil {
			return nil, err
		}
		hi, err := p.expect(tInt, "the range's upper bound")
		if err != nil {
			return nil, err
		}
		if hi.num < lo.num {
			return nil, errf(lo.pos, "empty range %d..%d (lower bound exceeds upper)", lo.num, hi.num)
		}
		return &In{Field: f.text, IsRange: true, Lo: lo.num, Hi: hi.num, pos: f.pos}, nil
	case tLParen:
		p.next()
		in := &In{Field: f.text, pos: f.pos}
		for {
			v := p.next()
			switch v.kind {
			case tString:
				if len(in.Ints) > 0 {
					return nil, errf(v.pos, "mixed string and integer literals in one list")
				}
				in.Strs = append(in.Strs, v.text)
				in.isStr = true
			case tInt:
				if len(in.Strs) > 0 {
					return nil, errf(v.pos, "mixed string and integer literals in one list")
				}
				in.Ints = append(in.Ints, v.num)
			default:
				return nil, errf(v.pos, "expected a string or integer literal, got %s", describe(v))
			}
			if p.cur().kind == tComma {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return nil, err
		}
		return in, nil
	default:
		return nil, errf(t.pos, "expected a lo..hi range or a (v1, v2, ...) list after \"in\", got %s", describe(t))
	}
}

func (p *parser) parseAgg() (Agg, *ParseError) {
	t, err := p.expect(tIdent, `an aggregation (count, sum, or topk)`)
	if err != nil {
		return Agg{}, err
	}
	agg := Agg{Fn: t.text, pos: t.pos}
	switch t.text {
	case "count":
		if _, err := p.expect(tLParen, `"("`); err != nil {
			return Agg{}, err
		}
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return Agg{}, err
		}
	case "sum":
		if _, err := p.expect(tLParen, `"("`); err != nil {
			return Agg{}, err
		}
		arg, err := p.parseField()
		if err != nil {
			return Agg{}, err
		}
		agg.Arg = arg.text
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return Agg{}, err
		}
	case "topk":
		if _, err := p.expect(tLParen, `"("`); err != nil {
			return Agg{}, err
		}
		k, err := p.expect(tInt, "topk's group count")
		if err != nil {
			return Agg{}, err
		}
		agg.K = k.num
		if _, err := p.expect(tRParen, `")"`); err != nil {
			return Agg{}, err
		}
	default:
		return Agg{}, errf(t.pos, "unknown aggregation %q (want count, sum, or topk)", t.text)
	}
	if p.cur().kind == tIdent && p.cur().text == "by" {
		p.next()
		by, err := p.parseField()
		if err != nil {
			return Agg{}, err
		}
		agg.By = by.text
	} else if agg.Fn == "topk" {
		return Agg{}, errf(p.cur().pos, `topk needs a "by" group field`)
	}
	return agg, nil
}
