package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// lexer produces tokens from a query string, one per next call; at the end
// of the string, next returns TokEOF.
type lexer struct {
	src string
	pos int
}

// peek returns the token next would, without consuming it: lx is a copy.
func (lx lexer) peek() Token {
	t, _ := lx.next()
	return t
}

func (lx *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (Token, error) {
	// Skip whitespace and -- comments.
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			lx.pos++
			continue
		}
		if c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-' {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			continue
		}
		break
	}
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: lx.pos}, nil
	}

	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case c == '\'':
		lx.pos++
		var sb strings.Builder
		for {
			if lx.pos >= len(lx.src) {
				return Token{}, lx.errf(start, "unterminated string literal")
			}
			ch := lx.src[lx.pos]
			if ch == '\'' {
				// '' is an escaped quote.
				if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
					sb.WriteByte('\'')
					lx.pos += 2
					continue
				}
				lx.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			lx.pos++
		}

	case c >= '0' && c <= '9':
		sawDot, sawExp := false, false
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			switch {
			case ch >= '0' && ch <= '9':
			case ch == '.' && !sawDot && !sawExp:
				// A digit must follow for this to be part of the number.
				if lx.pos+1 >= len(lx.src) || lx.src[lx.pos+1] < '0' || lx.src[lx.pos+1] > '9' {
					goto doneNumber
				}
				sawDot = true
			case (ch == 'e' || ch == 'E') && !sawExp:
				sawExp = true
				if lx.pos+1 < len(lx.src) && (lx.src[lx.pos+1] == '+' || lx.src[lx.pos+1] == '-') {
					lx.pos++
				}
			default:
				goto doneNumber
			}
			lx.pos++
		}
	doneNumber:
		return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil

	case c == '_' || unicode.IsLetter(rune(c)):
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			if ch == '_' || ch >= '0' && ch <= '9' || unicode.IsLetter(rune(ch)) {
				lx.pos++
				continue
			}
			break
		}
		word := lx.src[start:lx.pos]
		up := strings.ToUpper(word)
		if keywords[up] {
			return Token{Kind: TokKeyword, Text: up, Pos: start}, nil
		}
		return Token{Kind: TokIdent, Text: word, Pos: start}, nil

	case c == ',':
		lx.pos++
		return Token{Kind: TokComma, Text: ",", Pos: start}, nil
	case c == '.':
		lx.pos++
		return Token{Kind: TokDot, Text: ".", Pos: start}, nil
	case c == '(':
		lx.pos++
		return Token{Kind: TokLParen, Text: "(", Pos: start}, nil
	case c == ')':
		lx.pos++
		return Token{Kind: TokRParen, Text: ")", Pos: start}, nil
	case c == ';':
		lx.pos++
		return Token{Kind: TokSemicolon, Text: ";", Pos: start}, nil
	case c == '*':
		lx.pos++
		return Token{Kind: TokStar, Text: "*", Pos: start}, nil
	case c == '?':
		lx.pos++
		return Token{Kind: TokQuestion, Text: "?", Pos: start}, nil

	case c == '=' || c == '+' || c == '-' || c == '/':
		lx.pos++
		return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
	case c == '<':
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '=' || lx.src[lx.pos] == '>') {
			lx.pos++
		}
		return Token{Kind: TokOp, Text: lx.src[start:lx.pos], Pos: start}, nil
	case c == '>':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
		}
		return Token{Kind: TokOp, Text: lx.src[start:lx.pos], Pos: start}, nil
	case c == '!':
		lx.pos++
		if lx.pos < len(lx.src) && lx.src[lx.pos] == '=' {
			lx.pos++
			return Token{Kind: TokOp, Text: "<>", Pos: start}, nil
		}
		return Token{}, lx.errf(start, "unexpected character %q", c)

	default:
		return Token{}, lx.errf(start, "unexpected character %q", c)
	}
}
