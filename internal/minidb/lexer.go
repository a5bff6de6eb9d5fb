package minidb

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokNumber
	tokString
	tokPunct
)

// token is one lexeme.
type token struct {
	kind tokenKind
	text string // identifiers upper-cased for keyword matching
	raw  string // original spelling
	pos  int
}

// SyntaxError reports a parse failure with position context.
type SyntaxError struct {
	Pos int
	Msg string
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minidb: syntax error at %d: %s", e.Pos, e.Msg)
}

// lex tokenizes a SQL string.
func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && sql[i+1] == '-': // line comment
			for i < n && sql[i] != '\n' {
				i++
			}
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(sql[i]) {
				i++
			}
			raw := sql[start:i]
			toks = append(toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && sql[i+1] >= '0' && sql[i+1] <= '9'):
			start := i
			seenDot := false
			for i < n {
				d := sql[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot {
					seenDot = true
					i++
					continue
				}
				break
			}
			toks = append(toks, token{kind: tokNumber, text: sql[start:i], raw: sql[start:i], pos: start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if sql[i] == '\'' {
					if i+1 < n && sql[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(sql[i])
				i++
			}
			if !closed {
				return nil, &SyntaxError{Pos: i, Msg: "unterminated string literal"}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), raw: sql[start:i], pos: start})
		default:
			start := i
			// Multi-char operators first.
			for _, op := range []string{"<=", ">=", "!=", "<>"} {
				if strings.HasPrefix(sql[i:], op) {
					toks = append(toks, token{kind: tokPunct, text: op, raw: op, pos: start})
					i += len(op)
					goto next
				}
			}
			switch c {
			case '(', ')', ',', '*', '=', '<', '>', ';', '+', '-', '/', '.', '?':
				toks = append(toks, token{kind: tokPunct, text: string(c), raw: string(c), pos: start})
				i++
			default:
				return nil, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", rune(c))}
			}
		next:
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || c >= '0' && c <= '9'
}
