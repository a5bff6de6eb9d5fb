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

// lex tokenizes a SQL string: identifiers (and keywords), unsigned
// integers, single-quoted strings (a doubled quote stands for one quote),
// and the punctuation ( ) , * = + ?.
func lex(sql string) ([]token, error) {
	var toks []token
	i := 0
	n := len(sql)
	for i < n {
		c := sql[i]
		start := i
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			for i < n && isIdentPart(sql[i]) {
				i++
			}
			raw := sql[start:i]
			toks = append(toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
		case c >= '0' && c <= '9':
			for i < n && sql[i] >= '0' && sql[i] <= '9' {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: sql[start:i], raw: sql[start:i], pos: start})
		case c == '\'':
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
		case strings.IndexByte("(),*=+?", c) >= 0:
			toks = append(toks, token{kind: tokPunct, text: string(c), raw: string(c), pos: start})
			i++
		default:
			return nil, &SyntaxError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", rune(c))}
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
