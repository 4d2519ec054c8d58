package cc

import (
	"strings"
	"testing"
)

// firSource is the paper's Fig. 3(a) 5-tap FIR kernel.
const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

func TestParseFIR(t *testing.T) {
	f, err := Parse(firSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Globals) != 2 {
		t.Fatalf("globals = %d, want 2", len(f.Globals))
	}
	fn := f.Func("fir")
	if fn == nil {
		t.Fatal("missing function fir")
	}
	if len(fn.Body.Stmts) != 2 {
		t.Fatalf("body statements = %d, want 2 (decl + for)", len(fn.Body.Stmts))
	}
	loop, ok := fn.Body.Stmts[1].(*For)
	if !ok {
		t.Fatalf("second statement is %T, want *For", fn.Body.Stmts[1])
	}
	if loop.Init == nil || loop.Cond == nil || loop.Post == nil {
		t.Fatal("for loop missing init/cond/post")
	}
	if len(loop.Body.Stmts) != 1 {
		t.Fatalf("loop body = %d statements, want 1", len(loop.Body.Stmts))
	}
}

// ifElseSource is the paper's Fig. 5 alternative-branch kernel.
const ifElseSource = `
void if_else(int x1, int x2, int* x3, int* x4) {
	int a, c;
	c = x1 - x2;
	if (c < x2)
		a = x1*x1;
	else
		a = x1 * x2 + 3;
	c = c - a;
	*x3 = c;
	*x4 = a;
	return;
}
`

func TestParseIfElse(t *testing.T) {
	f, err := Parse(ifElseSource)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("if_else")
	if fn == nil {
		t.Fatal("missing if_else")
	}
	if len(fn.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(fn.Params))
	}
	if fn.Params[0].IsOutput() || !fn.Params[2].IsOutput() || !fn.Params[3].IsOutput() {
		t.Error("output parameter detection wrong")
	}
}

// accumSource is the paper's Fig. 4(a) accumulator.
const accumSource = `
int sum;
int A[32];
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`

func TestParseAccumulatorWithIncrement(t *testing.T) {
	f, err := Parse(accumSource)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("accum")
	loop := fn.Body.Stmts[2].(*For)
	post := loop.Post
	// i++ must have been desugared to i = i + 1.
	bin, ok := post.RHS.(*Binary)
	if !ok || bin.Op != PLUS {
		t.Fatalf("post RHS = %s, want i + 1", FormatExpr(post.RHS))
	}
}

func TestParseCompoundAssignDesugar(t *testing.T) {
	src := `void f(int x, int* o) { int s; s = 1; s += x; s <<= 2; s &= 15; *o = s; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Func("f").Body.Stmts
	a2 := body[2].(*Assign)
	if got := FormatExpr(a2.RHS); got != "(s + x)" {
		t.Errorf("s += x desugars to %s", got)
	}
	a3 := body[3].(*Assign)
	if got := FormatExpr(a3.RHS); got != "(s << 2)" {
		t.Errorf("s <<= 2 desugars to %s", got)
	}
	a4 := body[4].(*Assign)
	if got := FormatExpr(a4.RHS); got != "(s & 15)" {
		t.Errorf("s &= 15 desugars to %s", got)
	}
}

func TestParseSizedTypes(t *testing.T) {
	src := `void f(uint12 a, int19 b, uint1 nd, int24* out) { *out = a + b; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("f")
	if it := fn.Params[0].Type.(IntType); it.Bits != 12 || it.Signed {
		t.Errorf("uint12 parsed as %v", it)
	}
	if it := fn.Params[1].Type.(IntType); it.Bits != 19 || !it.Signed {
		t.Errorf("int19 parsed as %v", it)
	}
	if pt := fn.Params[3].Type.(PointerType); pt.Elem.Bits != 24 {
		t.Errorf("int24* parsed as %v", pt)
	}
}

func TestParseStandardTypes(t *testing.T) {
	src := `void f(unsigned char a, short b, unsigned int c, long d, signed e) {}`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("f")
	want := []IntType{
		{Bits: 8, Signed: false},
		{Bits: 16, Signed: true},
		{Bits: 32, Signed: false},
		{Bits: 32, Signed: true},
		{Bits: 32, Signed: true},
	}
	for i, w := range want {
		if got := fn.Params[i].Type.(IntType); got != w {
			t.Errorf("param %d: got %v, want %v", i, got, w)
		}
	}
}

func TestParseConstArrayROM(t *testing.T) {
	src := `
const int16 costab[8] = {16384, 15137, 11585, 6270, 0, -6270, -11585, -15137};
void f(uint3 x, int16* y) { *y = costab[x]; }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := f.Global("costab")
	if g == nil || !g.IsConst {
		t.Fatal("costab should be a const array")
	}
	if len(g.InitArr) != 8 || g.InitArr[5] != -6270 {
		t.Errorf("initializer = %v", g.InitArr)
	}
}

func TestParse2DArray(t *testing.T) {
	src := `
int img[16][16];
void f() {
	int i; int j;
	for (i = 0; i < 16; i++)
		for (j = 0; j < 16; j++)
			img[i][j] = i + j;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	at := f.Global("img").Type.(ArrayType)
	if len(at.Dims) != 2 || at.Dims[0] != 16 || at.Dims[1] != 16 {
		t.Errorf("dims = %v", at.Dims)
	}
}

func TestParsePrecedence(t *testing.T) {
	src := `void f(int a, int b, int c, int* o) { *o = a + b * c << 1 & 3 | 4 ^ 5; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rhs := f.Func("f").Body.Stmts[0].(*Assign).RHS
	got := FormatExpr(rhs)
	want := "((((a + (b * c)) << 1) & 3) | (4 ^ 5))"
	if got != want {
		t.Errorf("precedence: got %s, want %s", got, want)
	}
}

func TestParseTernary(t *testing.T) {
	src := `void f(int a, int* o) { *o = a > 0 ? a : -a; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rhs := f.Func("f").Body.Stmts[0].(*Assign).RHS
	if _, ok := rhs.(*CondExpr); !ok {
		t.Errorf("ternary parsed as %T", rhs)
	}
}

func TestParseCast(t *testing.T) {
	src := `void f(int a, int* o) { *o = (unsigned char)a + (int16)3; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rhs := f.Func("f").Body.Stmts[0].(*Assign).RHS.(*Binary)
	c1 := rhs.X.(*Call)
	if c1.Name != "__cast_uint8" {
		t.Errorf("cast lowered to %q", c1.Name)
	}
	c2 := rhs.Y.(*Call)
	if c2.Name != "__cast_int16" {
		t.Errorf("cast lowered to %q", c2.Name)
	}
}

func TestParseWhile(t *testing.T) {
	src := `void f(int n, int* o) { int s; s = 0; while (n > 0) { s = s + n; n = n - 1; } *o = s; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop, ok := f.Func("f").Body.Stmts[2].(*For)
	if !ok || loop.Init != nil || loop.Post != nil || loop.Cond == nil {
		t.Errorf("while not normalized to For: %+v", loop)
	}
}

func TestParseIntrinsics(t *testing.T) {
	src := `
int sum;
void main_dp(int t0, int* t1) {
	int t2;
	t2 = ROCCC_load_prev(sum) + t0;
	ROCCC_store2next(sum, t2);
	*t1 = sum;
}
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := f.Func("main_dp").Body.Stmts
	if _, ok := body[2].(*ExprStmt); !ok {
		t.Errorf("store2next statement parsed as %T", body[2])
	}
}

func TestParseVoidParamList(t *testing.T) {
	for _, src := range []string{`void f(void) {}`, `void f() {}`} {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if n := len(f.Func("f").Params); n != 0 {
			t.Errorf("%q: %d params", src, n)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`void f( { }`,
		`void f() { int; }`,
		`void f() { x = ; }`,
		`void f() { if x { } }`,
		`int A[0]; void f() {}`,
		`void f() { for (1; 1; 1) {} }`,
		`int A[2][2][2]; void f() {}`,
		`void f() { return 1; } void f() {}`, // caught at sema, parse ok; see below
	}
	for _, src := range cases[:len(cases)-1] {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: expected parse error", src)
		}
	}
	// The parser pulls tokens as it goes, but a lexical error anywhere
	// in the input still wins over a syntax error before it, and
	// positions survive the backtrack from a global's type to a function
	// header and the lookahead in "(void)".
	texts := []struct{ src, want string }{
		{"void f( { } @", "cc: 1:13: unexpected character '@'"},
		{"void f( { } /* never closed", "cc: 1:13: unterminated block comment"},
		{"int f(int a b) { }", "cc: 1:13: expected ), found identifier(b)"},
		{"int g; unsigned f(int a, ) { }", "cc: 1:26: expected type, found )"},
		{"void f(void", "cc: 1:12: expected identifier, found EOF"},
		{"void f(void @", "cc: 1:13: unexpected character '@'"},
		{"void f(void) { x = 1; } int", "cc: 1:28: expected identifier, found EOF"},
		{"int x = 3 $ 4;", "cc: 1:11: unexpected character '$'"},
	}
	for _, tc := range texts {
		_, err := Parse(tc.src)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%q: error %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestParseMultiDeclarators(t *testing.T) {
	src := `void f() { int a, b, c; a = 1; b = 2; c = a + b; }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// "int a, b, c;" splices three LocalDecls into the enclosing block.
	body := f.Func("f").Body.Stmts
	if len(body) != 6 {
		t.Fatalf("body has %d statements, want 6", len(body))
	}
	for i := 0; i < 3; i++ {
		if _, ok := body[i].(*LocalDecl); !ok {
			t.Errorf("stmt %d is %T, want *LocalDecl", i, body[i])
		}
	}
}

func TestFormatExprStable(t *testing.T) {
	src := `void f(int a, int b, int* o) { *o = (a < b) ? ~a : (a % b); }`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatExpr(f.Func("f").Body.Stmts[0].(*Assign).RHS)
	if !strings.Contains(got, "?") || !strings.Contains(got, "~a") {
		t.Errorf("format = %s", got)
	}
}
