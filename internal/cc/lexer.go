package cc

import (
	"fmt"
	"strconv"
)

// Lexer converts restricted-C source text into a token stream, one
// token per Next call. It understands //-line and /* */-block comments,
// decimal, hexadecimal and character literals, and all operators used
// by the ROCCC C subset. A Lexer is a plain value: a copy resumes from
// the same point, which is how the parser backtracks and looks ahead.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

func (lx *Lexer) peek() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *Lexer) peek2() byte {
	if lx.off+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			open := lx.pos()
			lx.advance()
			lx.advance()
			closed := false
			for lx.off < len(lx.src) {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				return fmt.Errorf("cc: %s: unterminated block comment", open)
			}
		case c == '#':
			// Preprocessor lines (e.g. #define guards in test inputs) are
			// skipped wholesale; the subset does not use macros beyond the
			// ROCCC_* intrinsics which are plain calls.
			for lx.off < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// Next returns the next token in the stream.
func (lx *Lexer) Next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := lx.pos()
	if lx.off >= len(lx.src) {
		return Token{Kind: EOF, Pos: start}, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		from := lx.off
		for lx.off < len(lx.src) && isIdentCont(lx.peek()) {
			lx.advance()
		}
		text := lx.src[from:lx.off]
		if kw, ok := keywords[text]; ok {
			return Token{Kind: kw, Text: text, Pos: start}, nil
		}
		return Token{Kind: IDENT, Text: text, Pos: start}, nil
	case isDigit(c):
		return lx.number(start)
	case c == '\'':
		return lx.charLit(start)
	}
	lx.advance()
	two := func(second byte, withKind, aloneKind Kind) (Token, error) {
		if lx.peek() == second {
			lx.advance()
			return Token{Kind: withKind, Pos: start}, nil
		}
		return Token{Kind: aloneKind, Pos: start}, nil
	}
	switch c {
	case '(':
		return Token{Kind: LPAREN, Pos: start}, nil
	case ')':
		return Token{Kind: RPAREN, Pos: start}, nil
	case '{':
		return Token{Kind: LBRACE, Pos: start}, nil
	case '}':
		return Token{Kind: RBRACE, Pos: start}, nil
	case '[':
		return Token{Kind: LBRACKET, Pos: start}, nil
	case ']':
		return Token{Kind: RBRACKET, Pos: start}, nil
	case ';':
		return Token{Kind: SEMI, Pos: start}, nil
	case ',':
		return Token{Kind: COMMA, Pos: start}, nil
	case '?':
		return Token{Kind: QUEST, Pos: start}, nil
	case ':':
		return Token{Kind: COLON, Pos: start}, nil
	case '~':
		return Token{Kind: TILDE, Pos: start}, nil
	case '=':
		return two('=', EQ, ASSIGN)
	case '!':
		return two('=', NE, BANG)
	case '+':
		if lx.peek() == '+' {
			lx.advance()
			return Token{Kind: INC, Pos: start}, nil
		}
		return two('=', PLUSEQ, PLUS)
	case '-':
		if lx.peek() == '-' {
			lx.advance()
			return Token{Kind: DEC, Pos: start}, nil
		}
		return two('=', MINUSEQ, MINUS)
	case '*':
		return two('=', STAREQ, STAR)
	case '/':
		return two('=', SLASHEQ, SLASH)
	case '%':
		return Token{Kind: PERCENT, Pos: start}, nil
	case '&':
		if lx.peek() == '&' {
			lx.advance()
			return Token{Kind: LAND, Pos: start}, nil
		}
		return two('=', AMPEQ, AMP)
	case '|':
		if lx.peek() == '|' {
			lx.advance()
			return Token{Kind: LOR, Pos: start}, nil
		}
		return two('=', PIPEEQ, PIPE)
	case '^':
		return two('=', CARETEQ, CARET)
	case '<':
		if lx.peek() == '<' {
			lx.advance()
			return two('=', SHLEQ, SHL)
		}
		return two('=', LE, LT)
	case '>':
		if lx.peek() == '>' {
			lx.advance()
			return two('=', SHREQ, SHR)
		}
		return two('=', GE, GT)
	}
	return Token{}, fmt.Errorf("cc: %s: unexpected character %q", start, c)
}

func (lx *Lexer) number(start Pos) (Token, error) {
	from := lx.off
	if lx.peek() == '0' && (lx.peek2() == 'x' || lx.peek2() == 'X') {
		lx.advance()
		lx.advance()
		for lx.off < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.off < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
	}
	text := lx.src[from:lx.off]
	// Integer suffixes (u, U, l, L) are accepted and ignored.
	for lx.off < len(lx.src) {
		switch lx.peek() {
		case 'u', 'U', 'l', 'L':
			lx.advance()
		default:
			goto done
		}
	}
done:
	v, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		return Token{}, fmt.Errorf("cc: %s: bad number %q: %v", start, text, err)
	}
	return Token{Kind: NUMBER, Text: text, Val: v, Pos: start}, nil
}

func (lx *Lexer) charLit(start Pos) (Token, error) {
	lx.advance() // opening quote
	if lx.off >= len(lx.src) {
		return Token{}, fmt.Errorf("cc: %s: unterminated character literal", start)
	}
	var v int64
	c := lx.advance()
	if c == '\\' {
		if lx.off >= len(lx.src) {
			return Token{}, fmt.Errorf("cc: %s: unterminated escape", start)
		}
		e := lx.advance()
		switch e {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case 'r':
			v = '\r'
		case '0':
			v = 0
		case '\\':
			v = '\\'
		case '\'':
			v = '\''
		default:
			return Token{}, fmt.Errorf("cc: %s: unsupported escape \\%c", start, e)
		}
	} else {
		v = int64(c)
	}
	if lx.off >= len(lx.src) || lx.advance() != '\'' {
		return Token{}, fmt.Errorf("cc: %s: unterminated character literal", start)
	}
	return Token{Kind: NUMBER, Text: strconv.FormatInt(v, 10), Val: v, Pos: start}, nil
}
