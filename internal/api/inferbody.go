package api

import (
	"fmt"
	"strconv"
)

// ParseInferRequest decodes a POST /v2/infer body in one pass over its
// bytes. It accepts exactly {"inputs":[[n,…],…]}, with JSON whitespace
// between any two tokens, and refuses the rest of what encoding/json would
// take: an unknown, duplicate or case-folded member, a null anywhere, and
// any data after the closing brace. Each n must match the RFC 8259 number
// grammar before it is converted, because strconv.ParseFloat alone also
// takes +1, .5, 1., 01, NaN, Inf, hex and underscores.
//
// Every value is bit-identical to the float64 encoding/json decodes from
// the same literal. The grammar scan accumulates each literal's digits
// into a significand m and a decimal exponent e. When m <= 2^53 and
// |e| <= 22, both m and 10^|e| are exact float64s, so float64(m) times or
// divided by 10^|e| is one correctly rounded operation (Clinger's fast
// path, the test strconv's atof64exact makes). Every other literal goes to
// strconv.ParseFloat on its validated bytes, and an out-of-range one such
// as 1e400 is refused, as encoding/json refuses it.
//
// Each row is allocated with capacity rowCap, the served model's input
// size, so a row of the right length never regrows. A body with more than
// maxInputs rows is refused when row maxInputs+1 opens, before it is read.
// Every error names the byte offset at which the body stopped matching.
func ParseInferRequest(body []byte, maxInputs, rowCap int) (InferRequest, error) {
	p := inferParser{b: body}
	for _, tok := range [...]string{"{", `"inputs"`, ":", "["} {
		if err := p.token(tok); err != nil {
			return InferRequest{}, err
		}
	}
	var rows [][]float64
	if p.space() == ']' {
		p.i++
	} else {
		for {
			if len(rows) == maxInputs {
				return InferRequest{}, p.fail("inputs exceed the per-request cap of %d", maxInputs)
			}
			row, err := p.row(rowCap)
			if err != nil {
				return InferRequest{}, err
			}
			rows = append(rows, row)
			c := p.space()
			if c == ']' {
				p.i++
				break
			}
			if c != ',' {
				return InferRequest{}, p.fail("want ',' or ']' after an input, found %s", p.found())
			}
			p.i++
		}
	}
	if err := p.token("}"); err != nil {
		return InferRequest{}, err
	}
	if p.space(); p.i < len(p.b) {
		return InferRequest{}, p.fail("data after the closing brace")
	}
	return InferRequest{Inputs: rows}, nil
}

// inferParser is the scan position in one /v2/infer body.
type inferParser struct {
	b []byte
	i int
}

func (p *inferParser) fail(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", p.i, fmt.Sprintf(format, args...))
}

// found describes the byte at the scan position for an error message.
func (p *inferParser) found() string {
	if p.i >= len(p.b) {
		return "the end of the body"
	}
	return fmt.Sprintf("%q", p.b[p.i])
}

// space skips JSON whitespace and returns the next byte, or 0 at the end
// of the body.
func (p *inferParser) space() byte {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// token consumes tok after any whitespace.
func (p *inferParser) token(tok string) error {
	p.space()
	if len(p.b)-p.i < len(tok) || string(p.b[p.i:p.i+len(tok)]) != tok {
		return p.fail("want %s, found %s", tok, p.found())
	}
	p.i += len(tok)
	return nil
}

// row reads one input: an array of numbers.
func (p *inferParser) row(rowCap int) ([]float64, error) {
	if p.space() != '[' {
		return nil, p.fail("want '[' to open an input, found %s", p.found())
	}
	p.i++
	row := make([]float64, 0, rowCap)
	if p.space() == ']' {
		p.i++
		return row, nil
	}
	for {
		p.space()
		v, err := p.number()
		if err != nil {
			return nil, err
		}
		row = append(row, v)
		switch p.space() {
		case ',':
			p.i++
		case ']':
			p.i++
			return row, nil
		default:
			return nil, p.fail("want ',' or ']' after a number, found %s", p.found())
		}
	}
}

// exactPow10 holds the powers of ten that a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number reads one RFC 8259 number literal:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *inferParser) number() (float64, error) {
	b, start := p.b, p.i
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// m gathers the significand's digits until it passes 2^53, after which
	// the literal cannot take the fast path and only the grammar is checked.
	var m uint64
	e := 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			if m <= 1<<53 {
				m = m*10 + uint64(b[i]-'0')
			}
		}
	default:
		p.i = i
		return 0, p.fail("want a number, found %s", p.found())
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			p.i = i
			return 0, p.fail("want a digit after the decimal point, found %s", p.found())
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if m <= 1<<53 {
				m = m*10 + uint64(b[i]-'0')
				e--
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			p.i = i
			return 0, p.fail("want a digit in the exponent, found %s", p.found())
		}
		x := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if x < 1e4 { // far past any exact power; the rest cannot matter
				x = x*10 + int(b[i]-'0')
			}
		}
		if eneg {
			x = -x
		}
		e += x
	}
	p.i = i
	if m <= 1<<53 && -22 <= e && e <= 22 {
		f := float64(m)
		if neg {
			f = -f
		}
		if e < 0 {
			return f / exactPow10[-e], nil
		}
		return f * exactPow10[e], nil
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil { // the grammar is checked, so only a range error is left
		p.i = start
		return 0, p.fail("number %s is outside the float64 range", b[start:i])
	}
	return f, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
