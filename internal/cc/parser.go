package cc

import (
	"fmt"
)

// Parser is a recursive-descent parser for the ROCCC C subset. It pulls
// tokens from its Lexer one at a time and holds only the current one.
type Parser struct {
	lx  Lexer
	tok Token
	// err is the lexer's first error. The parser sees EOF from then on,
	// and Parse reports err over any syntax error, as if the whole input
	// had been lexed first.
	err error
}

// Parse lexes and parses src into a File. It reports the first lexical
// error in src if there is one, else the first syntax error.
func Parse(src string) (*File, error) {
	p := &Parser{lx: *NewLexer(src)}
	p.advance()
	f, err := p.file()
	if err != nil {
		for p.err == nil && p.tok.Kind != EOF {
			p.advance()
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return f, err
}

// advance pulls the next token into p.tok.
func (p *Parser) advance() {
	if p.err != nil {
		return
	}
	t, err := p.lx.Next()
	if err != nil {
		p.err = err
		t = Token{Kind: EOF, Pos: p.lx.pos()}
	}
	p.tok = t
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) at(k Kind) bool { return p.tok.Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

// peekIs reports whether the token after the current one is of kind k,
// lexing it on a copy of the lexer.
func (p *Parser) peekIs(k Kind) bool {
	lx := p.lx
	t, err := lx.Next()
	return err == nil && t.Kind == k
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, fmt.Errorf("cc: %s: expected %s, found %s", p.cur().Pos, k, p.cur())
}

func (p *Parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("cc: %s: %s", p.cur().Pos, fmt.Sprintf(format, args...))
}

// atType reports whether the current token begins a type specifier.
func (p *Parser) atType() bool {
	switch p.cur().Kind {
	case KwConst, KwVoid, KwInt, KwChar, KwShort, KwLong, KwUnsigned, KwSigned:
		return true
	case IDENT:
		_, ok := parseSizedTypeName(p.cur().Text)
		return ok
	}
	return false
}

// typeSpec parses a type specifier, returning the type and whether it was
// const-qualified.
func (p *Parser) typeSpec() (Type, bool, error) {
	isConst := p.accept(KwConst)
	switch p.cur().Kind {
	case KwVoid:
		p.next()
		return VoidType{}, isConst, nil
	case IDENT:
		if t, ok := parseSizedTypeName(p.cur().Text); ok {
			p.next()
			isConst = isConst || p.accept(KwConst)
			return t, isConst, nil
		}
		return nil, false, p.errf("unknown type name %q", p.cur().Text)
	}
	signed := true
	sawSign := false
	if p.accept(KwUnsigned) {
		signed, sawSign = false, true
	} else if p.accept(KwSigned) {
		sawSign = true
	}
	bits := 32
	sawBase := false
	switch p.cur().Kind {
	case KwChar:
		p.next()
		bits, sawBase = 8, true
	case KwShort:
		p.next()
		p.accept(KwInt)
		bits, sawBase = 16, true
	case KwLong:
		p.next()
		p.accept(KwLong) // "long long" is clamped to 32 bits in this subset
		p.accept(KwInt)
		bits, sawBase = 32, true
	case KwInt:
		p.next()
		bits, sawBase = 32, true
	}
	if !sawSign && !sawBase {
		return nil, false, p.errf("expected type, found %s", p.cur())
	}
	isConst = isConst || p.accept(KwConst)
	return IntType{Bits: bits, Signed: signed}, isConst, nil
}

// file parses the whole translation unit.
func (p *Parser) file() (*File, error) {
	f := &File{}
	for !p.at(EOF) {
		lx, tok := p.lx, p.tok // a function is parsed again from its type
		typ, isConst, err := p.typeSpec()
		if err != nil {
			return nil, err
		}
		isPtr := p.accept(STAR)
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.at(LPAREN) {
			if isPtr {
				return nil, p.errf("functions returning pointers are not supported")
			}
			p.lx, p.tok = lx, tok
			fn, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			if fn.Body != nil { // prototypes are dropped
				f.Funcs = append(f.Funcs, fn)
			}
			continue
		}
		if isPtr {
			return nil, fmt.Errorf("cc: %s: global pointers are not supported", nameTok.Pos)
		}
		g, err := p.finishVarDecl(typ, isConst, nameTok)
		if err != nil {
			return nil, err
		}
		f.Globals = append(f.Globals, g)
	}
	return f, nil
}

// finishVarDecl parses the remainder of a variable declaration after the
// type and name: optional array dimensions, optional initializer, ';'.
func (p *Parser) finishVarDecl(typ Type, isConst bool, nameTok Token) (*VarDecl, error) {
	elem, isInt := typ.(IntType)
	var dims []int
	for p.accept(LBRACKET) {
		if !isInt {
			return nil, fmt.Errorf("cc: %s: arrays of non-integer type", nameTok.Pos)
		}
		n, err := p.expect(NUMBER)
		if err != nil {
			return nil, err
		}
		if n.Val <= 0 {
			return nil, fmt.Errorf("cc: %s: array dimension must be positive", n.Pos)
		}
		dims = append(dims, int(n.Val))
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
	}
	if len(dims) > 2 {
		return nil, fmt.Errorf("cc: %s: arrays beyond two dimensions are not supported", nameTok.Pos)
	}
	d := &VarDecl{Name: nameTok.Text, Type: typ, IsConst: isConst, Pos: nameTok.Pos}
	if len(dims) > 0 {
		d.Type = ArrayType{Elem: elem, Dims: dims}
	}
	if p.accept(ASSIGN) {
		if len(dims) > 0 {
			vals, err := p.initList()
			if err != nil {
				return nil, err
			}
			d.InitArr = vals
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

// initList parses a braced, possibly nested, integer initializer list and
// returns the flattened values.
func (p *Parser) initList() ([]int64, error) {
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	var vals []int64
	for !p.at(RBRACE) {
		if p.at(LBRACE) {
			inner, err := p.initList()
			if err != nil {
				return nil, err
			}
			vals = append(vals, inner...)
		} else {
			neg := p.accept(MINUS)
			n, err := p.expect(NUMBER)
			if err != nil {
				return nil, err
			}
			v := n.Val
			if neg {
				v = -v
			}
			vals = append(vals, v)
		}
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RBRACE); err != nil {
		return nil, err
	}
	return vals, nil
}

// funcDecl parses a function definition.
func (p *Parser) funcDecl() (*FuncDecl, error) {
	ret, _, err := p.typeSpec()
	if err != nil {
		return nil, err
	}
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: nameTok.Text, Ret: ret, Pos: nameTok.Pos}
	if !p.at(RPAREN) && !(p.at(KwVoid) && p.peekIs(RPAREN)) {
		for {
			prm, err := p.param()
			if err != nil {
				return nil, err
			}
			fn.Params = append(fn.Params, prm)
			if !p.accept(COMMA) {
				break
			}
		}
	} else if p.at(KwVoid) {
		p.next()
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	// A trailing semicolon makes this a prototype (forward declaration);
	// prototypes carry no body and are dropped by the caller.
	if p.accept(SEMI) {
		return fn, nil
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

// param parses a single parameter declaration.
func (p *Parser) param() (Param, error) {
	typ, _, err := p.typeSpec()
	if err != nil {
		return Param{}, err
	}
	it, isInt := typ.(IntType)
	if p.accept(STAR) {
		if !isInt {
			return Param{}, p.errf("pointer parameters must point to integers")
		}
		typ = PointerType{Elem: it}
	}
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return Param{}, err
	}
	var dims []int
	for p.accept(LBRACKET) {
		n, err := p.expect(NUMBER)
		if err != nil {
			return Param{}, err
		}
		dims = append(dims, int(n.Val))
		if _, err := p.expect(RBRACKET); err != nil {
			return Param{}, err
		}
	}
	if len(dims) > 0 {
		if !isInt {
			return Param{}, p.errf("array parameters must have integer elements")
		}
		if len(dims) > 2 {
			return Param{}, p.errf("arrays beyond two dimensions are not supported")
		}
		typ = ArrayType{Elem: it, Dims: dims}
	}
	return Param{Name: nameTok.Text, Type: typ, Pos: nameTok.Pos}, nil
}

// block parses a brace-delimited statement list.
func (p *Parser) block() (*Block, error) {
	open, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: open.Pos}
	for !p.at(RBRACE) {
		if p.at(EOF) {
			return nil, fmt.Errorf("cc: %s: unterminated block", open.Pos)
		}
		// Declarations are parsed here (not in stmt) so that the
		// declarators of "int a, c;" land directly in this block's
		// statement list and scope.
		if p.atType() {
			decls, err := p.localDecls()
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, decls...)
			continue
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.next() // RBRACE
	return b, nil
}

// stmt parses a single statement; it returns nil for empty statements.
func (p *Parser) stmt() (Stmt, error) {
	switch {
	case p.at(SEMI):
		p.next()
		return nil, nil
	case p.at(LBRACE):
		return p.block()
	case p.at(KwIf):
		return p.ifStmt()
	case p.at(KwFor):
		return p.forStmt()
	case p.at(KwWhile):
		return p.whileStmt()
	case p.at(KwReturn):
		tok := p.next()
		r := &Return{Pos: tok.Pos}
		if !p.at(SEMI) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.Value = e
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return r, nil
	case p.atType():
		decls, err := p.localDecls()
		if err != nil {
			return nil, err
		}
		if len(decls) == 1 {
			return decls[0], nil
		}
		return &Block{Stmts: decls, Pos: decls[0].StmtPos()}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// localDecls parses one or more comma-separated local declarations
// sharing a type specifier, e.g. "int a, c;".
func (p *Parser) localDecls() ([]Stmt, error) {
	typ, _, err := p.typeSpec()
	if err != nil {
		return nil, err
	}
	if _, ok := typ.(VoidType); ok {
		return nil, p.errf("void local variables are not allowed")
	}
	var decls []Stmt
	for {
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		d := &LocalDecl{Name: nameTok.Text, Type: typ, Pos: nameTok.Pos}
		if p.accept(ASSIGN) {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		decls = append(decls, d)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return decls, nil
}

// ifStmt parses an if or if/else statement; non-block bodies are wrapped
// in single-statement blocks.
func (p *Parser) ifStmt() (Stmt, error) {
	tok := p.next() // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	thenBlk, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	stmt := &If{Cond: cond, Then: thenBlk, Pos: tok.Pos}
	if p.accept(KwElse) {
		elseBlk, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		stmt.Else = elseBlk
	}
	return stmt, nil
}

func (p *Parser) stmtAsBlock() (*Block, error) {
	if p.at(LBRACE) {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	b := &Block{Pos: p.cur().Pos}
	if s != nil {
		b.Stmts = append(b.Stmts, s)
		b.Pos = s.StmtPos()
	}
	return b, nil
}

// forStmt parses a canonical for loop.
func (p *Parser) forStmt() (Stmt, error) {
	tok := p.next() // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	f := &For{Pos: tok.Pos}
	if !p.at(SEMI) {
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		a, ok := s.(*Assign)
		if !ok {
			return nil, p.errf("for-loop initializer must be an assignment")
		}
		f.Init = a
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if !p.at(SEMI) {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Cond = c
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if !p.at(RPAREN) {
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		a, ok := s.(*Assign)
		if !ok {
			return nil, p.errf("for-loop post-statement must be an assignment")
		}
		f.Post = a
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// whileStmt parses a while loop, represented as a For with no init/post.
func (p *Parser) whileStmt() (Stmt, error) {
	tok := p.next() // while
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &For{Cond: cond, Body: body, Pos: tok.Pos}, nil
}

// simpleStmt parses an assignment (plain, compound, increment or
// decrement, all desugared to plain assignment) or a call statement.
func (p *Parser) simpleStmt() (Stmt, error) {
	startPos := p.cur().Pos
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case ASSIGN:
		p.next()
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &Assign{LHS: lhs, Op: ASSIGN, RHS: rhs, Pos: startPos}, nil
	case PLUSEQ, MINUSEQ, STAREQ, SLASHEQ, SHLEQ, SHREQ, AMPEQ, PIPEEQ, CARETEQ:
		op := p.next().Kind
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		bin := map[Kind]Kind{
			PLUSEQ: PLUS, MINUSEQ: MINUS, STAREQ: STAR, SLASHEQ: SLASH,
			SHLEQ: SHL, SHREQ: SHR, AMPEQ: AMP, PIPEEQ: PIPE, CARETEQ: CARET,
		}[op]
		return &Assign{LHS: lhs, Op: ASSIGN,
			RHS: &Binary{Op: bin, X: cloneExpr(lhs), Y: rhs, Pos: startPos}, Pos: startPos}, nil
	case INC, DEC:
		op := PLUS
		if p.next().Kind == DEC {
			op = MINUS
		}
		return &Assign{LHS: lhs, Op: ASSIGN,
			RHS: &Binary{Op: op, X: cloneExpr(lhs), Y: &NumberLit{Val: 1, Pos: startPos}, Pos: startPos},
			Pos: startPos}, nil
	default:
		if c, ok := lhs.(*Call); ok {
			return &ExprStmt{X: c, Pos: startPos}, nil
		}
		return nil, p.errf("expected assignment or call statement")
	}
}

// cloneExpr deep-copies a (pure) expression so the parser can duplicate
// the left-hand side when desugaring compound assignments.
func cloneExpr(e Expr) Expr {
	switch e := e.(type) {
	case *NumberLit:
		cp := *e
		return &cp
	case *Ident:
		cp := *e
		return &cp
	case *Index:
		base := *e.Base
		idx := make([]Expr, len(e.Idx))
		for i, ix := range e.Idx {
			idx[i] = cloneExpr(ix)
		}
		return &Index{Base: &base, Idx: idx, Pos: e.Pos}
	case *Deref:
		x := *e.X
		return &Deref{X: &x, Pos: e.Pos}
	case *Unary:
		return &Unary{Op: e.Op, X: cloneExpr(e.X), Pos: e.Pos}
	case *Binary:
		return &Binary{Op: e.Op, X: cloneExpr(e.X), Y: cloneExpr(e.Y), Pos: e.Pos}
	case *CondExpr:
		return &CondExpr{Cond: cloneExpr(e.Cond), Then: cloneExpr(e.Then), Else: cloneExpr(e.Else), Pos: e.Pos}
	case *Call:
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = cloneExpr(a)
		}
		return &Call{Name: e.Name, Args: args, Pos: e.Pos}
	default:
		panic(fmt.Sprintf("cc: cloneExpr: unexpected %T", e))
	}
}

// --- Expression parsing, standard C precedence ---

func (p *Parser) expr() (Expr, error) { return p.ternary() }

func (p *Parser) ternary() (Expr, error) {
	c, err := p.lor()
	if err != nil {
		return nil, err
	}
	if !p.accept(QUEST) {
		return c, nil
	}
	t, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	f, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: c, Then: t, Else: f, Pos: c.ExprPos()}, nil
}

// binaryLevel parses a left-associative binary level with the given
// operator set and next-higher-precedence parser.
func (p *Parser) binaryLevel(ops []Kind, sub func() (Expr, error)) (Expr, error) {
	x, err := sub()
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range ops {
			if p.at(op) {
				tok := p.next()
				y, err := sub()
				if err != nil {
					return nil, err
				}
				x = &Binary{Op: op, X: x, Y: y, Pos: tok.Pos}
				matched = true
				break
			}
		}
		if !matched {
			return x, nil
		}
	}
}

func (p *Parser) lor() (Expr, error) {
	return p.binaryLevel([]Kind{LOR}, p.land)
}
func (p *Parser) land() (Expr, error) {
	return p.binaryLevel([]Kind{LAND}, p.bitor)
}
func (p *Parser) bitor() (Expr, error) {
	return p.binaryLevel([]Kind{PIPE}, p.bitxor)
}
func (p *Parser) bitxor() (Expr, error) {
	return p.binaryLevel([]Kind{CARET}, p.bitand)
}
func (p *Parser) bitand() (Expr, error) {
	return p.binaryLevel([]Kind{AMP}, p.equality)
}
func (p *Parser) equality() (Expr, error) {
	return p.binaryLevel([]Kind{EQ, NE}, p.relational)
}
func (p *Parser) relational() (Expr, error) {
	return p.binaryLevel([]Kind{LT, LE, GT, GE}, p.shift)
}
func (p *Parser) shift() (Expr, error) {
	return p.binaryLevel([]Kind{SHL, SHR}, p.additive)
}
func (p *Parser) additive() (Expr, error) {
	return p.binaryLevel([]Kind{PLUS, MINUS}, p.multiplicative)
}
func (p *Parser) multiplicative() (Expr, error) {
	return p.binaryLevel([]Kind{STAR, SLASH, PERCENT}, p.unary)
}

func (p *Parser) unary() (Expr, error) {
	switch p.cur().Kind {
	case MINUS, TILDE, BANG:
		tok := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: tok.Kind, X: x, Pos: tok.Pos}, nil
	case PLUS:
		p.next()
		return p.unary()
	case STAR:
		tok := p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		return &Deref{X: &Ident{Name: name.Text, Pos: name.Pos}, Pos: tok.Pos}, nil
	}
	return p.postfix()
}

func (p *Parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(LBRACKET):
			id, ok := x.(*Ident)
			if !ok {
				return nil, p.errf("only named arrays may be indexed")
			}
			idx := &Index{Base: id, Pos: id.Pos}
			for p.accept(LBRACKET) {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				idx.Idx = append(idx.Idx, e)
				if _, err := p.expect(RBRACKET); err != nil {
					return nil, err
				}
			}
			if len(idx.Idx) > 2 {
				return nil, p.errf("arrays beyond two dimensions are not supported")
			}
			x = idx
		case p.at(LPAREN):
			id, ok := x.(*Ident)
			if !ok {
				return nil, p.errf("call of non-function expression")
			}
			p.next()
			call := &Call{Name: id.Name, Pos: id.Pos}
			for !p.at(RPAREN) {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(COMMA) {
					break
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			x = call
		default:
			return x, nil
		}
	}
}

func (p *Parser) primary() (Expr, error) {
	switch p.cur().Kind {
	case NUMBER:
		t := p.next()
		return &NumberLit{Val: t.Val, Pos: t.Pos}, nil
	case IDENT:
		t := p.next()
		return &Ident{Name: t.Text, Pos: t.Pos}, nil
	case LPAREN:
		p.next()
		// A parenthesized type is a cast; the subset treats casts as
		// width conversions, represented as an intrinsic-like Call.
		if p.atType() {
			typ, _, err := p.typeSpec()
			if err != nil {
				return nil, err
			}
			it, ok := typ.(IntType)
			if !ok {
				return nil, p.errf("only integer casts are supported")
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &Call{Name: "__cast_" + it.String(), Args: []Expr{x}, Pos: x.ExprPos()}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression, found %s", p.cur())
}
