// Package sexpr implements a minimal S-expression reader/printer used
// for TENSAT's textual rewrite-rule patterns (§3.2 of the paper).
package sexpr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Expr is either an atom (List == nil, Atom set) or a list.
type Expr struct {
	Atom string
	List []*Expr
}

// IsAtom reports whether e is an atom.
func (e *Expr) IsAtom() bool { return e.List == nil }

// String renders e back to S-expression syntax.
func (e *Expr) String() string {
	if e.IsAtom() {
		if needsQuote(e.Atom) {
			return strconv.Quote(e.Atom)
		}
		return e.Atom
	}
	parts := make([]string, len(e.List))
	for i, c := range e.List {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// needsQuote reports whether atom s would not read back as itself
// unquoted: it is empty, starts a comment, or holds a character that
// ends an atom or starts a string.
func needsQuote(s string) bool {
	if s == "" || s[0] == ';' {
		return true
	}
	for _, r := range s {
		if unicode.IsSpace(r) || r == '(' || r == ')' || r == '"' {
			return true
		}
	}
	return false
}

// Parse reads a single S-expression from src. Atoms are bare tokens;
// double-quoted strings become atoms with the quotes stripped (useful
// for permutation/shape payloads containing spaces).
func Parse(src string) (*Expr, error) {
	p := &parser{src: src}
	p.skipSpace()
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("sexpr: trailing input at offset %d: %q", p.pos, p.src[p.pos:])
	}
	return e, nil
}

// ParseMany reads a sequence of S-expressions (used for multi-pattern
// rules, whose sources/targets are lists of expressions).
func ParseMany(src string) ([]*Expr, error) {
	p := &parser{src: src}
	var out []*Expr
	for {
		p.skipSpace()
		if p.pos == len(p.src) {
			return out, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ';' { // comment to end of line
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
			continue
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		p.pos++
	}
}

func (p *parser) expr() (*Expr, error) {
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("sexpr: unexpected end of input")
	}
	switch c := p.src[p.pos]; {
	case c == '(':
		p.pos++
		list := []*Expr{}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("sexpr: unclosed list")
			}
			if p.src[p.pos] == ')' {
				p.pos++
				return &Expr{List: list}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
		}
	case c == ')':
		return nil, fmt.Errorf("sexpr: unexpected ')' at offset %d", p.pos)
	case c == '"':
		end := p.pos + 1
		for end < len(p.src) && p.src[end] != '"' {
			if p.src[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(p.src) {
			return nil, fmt.Errorf("sexpr: unterminated string at offset %d", p.pos)
		}
		raw := p.src[p.pos : end+1]
		p.pos = end + 1
		s, err := strconv.Unquote(raw)
		if err != nil {
			return nil, fmt.Errorf("sexpr: bad string %s: %w", raw, err)
		}
		return &Expr{Atom: s}, nil
	default:
		start := p.pos
		for p.pos < len(p.src) {
			c := p.src[p.pos]
			if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '(' || c == ')' {
				break
			}
			p.pos++
		}
		return &Expr{Atom: p.src[start:p.pos]}, nil
	}
}
