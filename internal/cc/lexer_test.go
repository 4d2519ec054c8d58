package cc

import (
	"testing"
	"testing/quick"
)

// Lex tokenizes the entire input, returning the token slice terminated by
// an EOF token, or the lexer's first error.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := Lex("for (i = 0; i < 17; i = i + 1) { C[i] = 3*A[i]; }")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{
		KwFor, LPAREN, IDENT, ASSIGN, NUMBER, SEMI, IDENT, LT, NUMBER, SEMI,
		IDENT, ASSIGN, IDENT, PLUS, NUMBER, RPAREN, LBRACE,
		IDENT, LBRACKET, IDENT, RBRACKET, ASSIGN, NUMBER, STAR,
		IDENT, LBRACKET, IDENT, RBRACKET, SEMI, RBRACE, EOF,
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexOperators(t *testing.T) {
	cases := map[string]Kind{
		"<<": SHL, ">>": SHR, "<=": LE, ">=": GE, "==": EQ, "!=": NE,
		"&&": LAND, "||": LOR, "+=": PLUSEQ, "-=": MINUSEQ, "<<=": SHLEQ,
		">>=": SHREQ, "++": INC, "--": DEC, "&=": AMPEQ, "|=": PIPEEQ,
		"^=": CARETEQ, "*=": STAREQ, "/=": SLASHEQ, "?": QUEST, ":": COLON,
	}
	for src, kind := range cases {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != kind {
			t.Errorf("%q: got %s, want %s", src, toks[0].Kind, kind)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "42": 42, "0x1F": 31, "0XfF": 255, "100u": 100, "7L": 7,
		"'a'": 97, "'\\n'": 10, "'\\0'": 0,
	}
	for src, v := range cases {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if toks[0].Kind != NUMBER || toks[0].Val != v {
			t.Errorf("%q: got %v=%d, want NUMBER=%d", src, toks[0].Kind, toks[0].Val, v)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("a /* mid */ b // end\nc")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // a b c EOF
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for i, want := range []string{"a", "b", "c"} {
		if toks[i].Text != want {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, want)
		}
	}
}

func TestLexPreprocessorSkipped(t *testing.T) {
	toks, err := Lex("#define N 5\nint x;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != KwInt {
		t.Fatalf("first token %v, want int keyword", toks[0])
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"$", "/* unterminated", "'x", "'\\q'"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestLexKeywords(t *testing.T) {
	for word, kind := range keywords {
		toks, err := Lex(word)
		if err != nil {
			t.Fatal(err)
		}
		if toks[0].Kind != kind {
			t.Errorf("%q: got %s, want %s", word, toks[0].Kind, kind)
		}
	}
}

// Property: any non-negative int value round-trips through the lexer.
func TestLexNumberRoundTripQuick(t *testing.T) {
	f := func(v uint32) bool {
		toks, err := Lex(Token{Kind: NUMBER, Val: int64(v)}.Text + "")
		_ = toks
		_ = err
		// Direct formatting round-trip:
		toks2, err := Lex(fmtInt(int64(v)))
		if err != nil || len(toks2) != 2 {
			return false
		}
		return toks2[0].Kind == NUMBER && toks2[0].Val == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}
