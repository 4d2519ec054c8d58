package cc

import (
	"fmt"
	"strings"
)

// SymKind classifies a resolved symbol.
type SymKind int

// Symbol kinds.
const (
	SymGlobal     SymKind = iota // global scalar variable
	SymConstArray                // global const array (ROM / lookup table)
	SymArray                     // global mutable array (memory-resident data)
	SymParam                     // scalar input parameter
	SymOutParam                  // pointer output parameter
	SymArrayParam                // array parameter (memory-resident data)
	SymLocal                     // function-local scalar
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymConstArray:
		return "const-array"
	case SymArray:
		return "array"
	case SymParam:
		return "param"
	case SymOutParam:
		return "out-param"
	case SymArrayParam:
		return "array-param"
	case SymLocal:
		return "local"
	}
	return "symbol"
}

// Symbol is a named program entity discovered during semantic analysis.
type Symbol struct {
	Name string
	Kind SymKind
	Type Type
	Decl *VarDecl // for globals/const arrays, else nil
}

// Elem returns the scalar type carried by the symbol (element type for
// arrays, pointee for out-params).
func (s *Symbol) Elem() IntType {
	switch t := s.Type.(type) {
	case IntType:
		return t
	case ArrayType:
		return t.Elem
	case PointerType:
		return t.Elem
	}
	return Int32
}

// Info is the result of semantic analysis: expression types and
// identifier resolutions for one translation unit.
type Info struct {
	File  *File
	Types map[Expr]Type    // type of every expression node
	Refs  map[Expr]*Symbol // *Ident and *Deref resolution
	Funcs map[string]*FuncDecl

	// Declaration-to-symbol bindings, used by HIR construction.
	GlobalSyms map[*VarDecl]*Symbol
	LocalSyms  map[*LocalDecl]*Symbol
	ParamSyms  map[*FuncDecl]map[string]*Symbol
}

// IntTypeOf returns the analyzed integer type of e; Int32 if e is not an
// integer expression.
func (in *Info) IntTypeOf(e Expr) IntType {
	if t, ok := in.Types[e].(IntType); ok {
		return t
	}
	return Int32
}

// SymbolOf returns the symbol an *Ident or *Deref resolves to, or nil.
func (in *Info) SymbolOf(e Expr) *Symbol { return in.Refs[e] }

// Intrinsic names understood by the compiler. ROCCC_load_prev and
// ROCCC_store2next are the feedback annotations of Fig. 4; casts are
// produced by the parser for C cast syntax.
const (
	IntrinsicLoadPrev   = "ROCCC_load_prev"
	IntrinsicStoreNext  = "ROCCC_store2next"
	intrinsicCastPrefix = "__cast_"
)

// IsCastIntrinsic reports whether name is a width-cast intrinsic, and if
// so returns the target type.
func IsCastIntrinsic(name string) (IntType, bool) {
	if !strings.HasPrefix(name, intrinsicCastPrefix) {
		return IntType{}, false
	}
	return parseSizedTypeName(name[len(intrinsicCastPrefix):])
}

type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func (sc *scope) lookup(name string) *Symbol {
	for s := sc; s != nil; s = s.parent {
		if sym, ok := s.syms[name]; ok {
			return sym
		}
	}
	return nil
}

func (sc *scope) define(sym *Symbol) error {
	if _, ok := sc.syms[sym.Name]; ok {
		return fmt.Errorf("cc: redeclaration of %q", sym.Name)
	}
	sc.syms[sym.Name] = sym
	return nil
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, syms: map[string]*Symbol{}}
}

type checker struct {
	info    *Info
	globals *scope
	fn      *FuncDecl
	calls   map[string][]string // call graph for recursion detection
}

// Analyze type-checks a parsed file and returns the analysis results.
// It enforces the paper's front-end restrictions: no recursion, pointers
// only as output parameters, const-bounded arrays, integer-only data.
func Analyze(file *File) (*Info, error) {
	info := &Info{
		File:       file,
		Types:      map[Expr]Type{},
		Refs:       map[Expr]*Symbol{},
		Funcs:      map[string]*FuncDecl{},
		GlobalSyms: map[*VarDecl]*Symbol{},
		LocalSyms:  map[*LocalDecl]*Symbol{},
		ParamSyms:  map[*FuncDecl]map[string]*Symbol{},
	}
	ck := &checker{info: info, globals: newScope(nil), calls: map[string][]string{}}
	for _, g := range file.Globals {
		kind := SymGlobal
		switch t := g.Type.(type) {
		case ArrayType:
			if g.IsConst {
				kind = SymConstArray
				if g.InitArr == nil {
					return nil, fmt.Errorf("cc: %s: const array %q needs an initializer", g.Pos, g.Name)
				}
				want := t.Dims[0]
				if len(t.Dims) == 2 {
					want *= t.Dims[1]
				}
				if len(g.InitArr) > want {
					return nil, fmt.Errorf("cc: %s: too many initializers for %q", g.Pos, g.Name)
				}
			} else {
				kind = SymArray
			}
		case IntType:
			// scalar global
		default:
			return nil, fmt.Errorf("cc: %s: unsupported global type %s", g.Pos, g.Type)
		}
		sym := &Symbol{Name: g.Name, Kind: kind, Type: g.Type, Decl: g}
		if err := ck.globals.define(sym); err != nil {
			return nil, fmt.Errorf("%v at %s", err, g.Pos)
		}
		info.GlobalSyms[g] = sym
	}
	for _, fn := range file.Funcs {
		if _, dup := info.Funcs[fn.Name]; dup {
			return nil, fmt.Errorf("cc: %s: redefinition of function %q", fn.Pos, fn.Name)
		}
		info.Funcs[fn.Name] = fn
	}
	for _, fn := range file.Funcs {
		if err := ck.checkFunc(fn); err != nil {
			return nil, err
		}
	}
	if err := ck.checkNoRecursion(); err != nil {
		return nil, err
	}
	return info, nil
}

func (ck *checker) checkFunc(fn *FuncDecl) error {
	ck.fn = fn
	sc := newScope(ck.globals)
	for _, prm := range fn.Params {
		kind := SymParam
		switch prm.Type.(type) {
		case PointerType:
			kind = SymOutParam
		case ArrayType:
			kind = SymArrayParam
		case IntType:
			kind = SymParam
		default:
			return fmt.Errorf("cc: %s: unsupported parameter type %s", prm.Pos, prm.Type)
		}
		sym := &Symbol{Name: prm.Name, Kind: kind, Type: prm.Type}
		if err := sc.define(sym); err != nil {
			return fmt.Errorf("%v at %s", err, prm.Pos)
		}
		if ck.info.ParamSyms[fn] == nil {
			ck.info.ParamSyms[fn] = map[string]*Symbol{}
		}
		ck.info.ParamSyms[fn][prm.Name] = sym
	}
	return ck.checkBlock(fn.Body, sc)
}

func (ck *checker) checkBlock(b *Block, sc *scope) error {
	inner := newScope(sc)
	for _, s := range b.Stmts {
		if err := ck.checkStmt(s, inner); err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) checkStmt(s Stmt, sc *scope) error {
	switch s := s.(type) {
	case *Block:
		return ck.checkBlock(s, sc)
	case *LocalDecl:
		it, ok := s.Type.(IntType)
		if !ok {
			return fmt.Errorf("cc: %s: local %q must be an integer scalar", s.Pos, s.Name)
		}
		if s.Init != nil {
			if _, err := ck.checkExpr(s.Init, sc); err != nil {
				return err
			}
		}
		sym := &Symbol{Name: s.Name, Kind: SymLocal, Type: it}
		ck.info.LocalSyms[s] = sym
		return sc.define(sym)
	case *Assign:
		if err := ck.checkLValue(s.LHS, sc); err != nil {
			return err
		}
		_, err := ck.checkExpr(s.RHS, sc)
		return err
	case *If:
		if _, err := ck.checkExpr(s.Cond, sc); err != nil {
			return err
		}
		if err := ck.checkBlock(s.Then, sc); err != nil {
			return err
		}
		if s.Else != nil {
			return ck.checkBlock(s.Else, sc)
		}
		return nil
	case *For:
		inner := newScope(sc)
		if s.Init != nil {
			if err := ck.checkStmt(s.Init, inner); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if _, err := ck.checkExpr(s.Cond, inner); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := ck.checkStmt(s.Post, inner); err != nil {
				return err
			}
		}
		return ck.checkBlock(s.Body, inner)
	case *Return:
		if s.Value == nil {
			if _, isVoid := ck.fn.Ret.(VoidType); !isVoid {
				return fmt.Errorf("cc: %s: missing return value in %q", s.Pos, ck.fn.Name)
			}
			return nil
		}
		if _, isVoid := ck.fn.Ret.(VoidType); isVoid {
			return fmt.Errorf("cc: %s: returning a value from void function %q", s.Pos, ck.fn.Name)
		}
		_, err := ck.checkExpr(s.Value, sc)
		return err
	case *ExprStmt:
		call, ok := s.X.(*Call)
		if !ok {
			return fmt.Errorf("cc: %s: expression statement must be a call", s.Pos)
		}
		_, err := ck.checkExpr(call, sc)
		return err
	default:
		return fmt.Errorf("cc: unexpected statement %T", s)
	}
}

// checkLValue validates an assignment target and records its type.
func (ck *checker) checkLValue(e Expr, sc *scope) error {
	switch e := e.(type) {
	case *Ident:
		sym := sc.lookup(e.Name)
		if sym == nil {
			return fmt.Errorf("cc: %s: undeclared variable %q", e.Pos, e.Name)
		}
		switch sym.Kind {
		case SymLocal, SymGlobal, SymParam:
			ck.info.Refs[e] = sym
			ck.info.Types[e] = sym.Type
			return nil
		default:
			return fmt.Errorf("cc: %s: cannot assign to %s %q", e.Pos, sym.Kind, e.Name)
		}
	case *Index:
		sym := sc.lookup(e.Base.Name)
		if sym == nil {
			return fmt.Errorf("cc: %s: undeclared array %q", e.Pos, e.Base.Name)
		}
		if sym.Kind == SymConstArray {
			return fmt.Errorf("cc: %s: cannot assign to const array %q", e.Pos, e.Base.Name)
		}
		if sym.Kind != SymArray && sym.Kind != SymArrayParam {
			return fmt.Errorf("cc: %s: %q is not an array", e.Pos, e.Base.Name)
		}
		at := sym.Type.(ArrayType)
		if len(e.Idx) != len(at.Dims) {
			return fmt.Errorf("cc: %s: %q has %d dimensions, indexed with %d",
				e.Pos, e.Base.Name, len(at.Dims), len(e.Idx))
		}
		for _, ix := range e.Idx {
			if _, err := ck.checkExpr(ix, sc); err != nil {
				return err
			}
		}
		ck.info.Refs[e.Base] = sym
		ck.info.Refs[e] = sym
		ck.info.Types[e] = at.Elem
		return nil
	case *Deref:
		sym := sc.lookup(e.X.Name)
		if sym == nil {
			return fmt.Errorf("cc: %s: undeclared variable %q", e.Pos, e.X.Name)
		}
		if sym.Kind != SymOutParam {
			return fmt.Errorf("cc: %s: * is only allowed on pointer output parameters (ROCCC does not support pointers)", e.Pos)
		}
		ck.info.Refs[e] = sym
		ck.info.Refs[e.X] = sym
		ck.info.Types[e] = sym.Type.(PointerType).Elem
		return nil
	default:
		return fmt.Errorf("cc: %s: invalid assignment target", e.ExprPos())
	}
}

// integerPromote applies the C integer promotions: any type narrower
// than int is promoted to int (32-bit signed) — int can represent all
// its values since the subset caps widths at 32 bits.
func integerPromote(t IntType) IntType {
	if t.Bits < 32 {
		return Int32
	}
	return t
}

// promote implements the usual arithmetic conversions: both operands are
// integer-promoted (both end up 32 bits wide), then unsigned wins.
func promote(a, b IntType) IntType {
	a, b = integerPromote(a), integerPromote(b)
	if !a.Signed || !b.Signed {
		return UInt32
	}
	return Int32
}

// UInt1 is the 1-bit boolean produced by comparisons and logic operators.
var UInt1 = IntType{Bits: 1, Signed: false}

func (ck *checker) checkExpr(e Expr, sc *scope) (Type, error) {
	switch e := e.(type) {
	case *NumberLit:
		t := Int32
		ck.info.Types[e] = t
		return t, nil
	case *Ident:
		sym := sc.lookup(e.Name)
		if sym == nil {
			return nil, fmt.Errorf("cc: %s: undeclared variable %q", e.Pos, e.Name)
		}
		switch sym.Kind {
		case SymOutParam:
			return nil, fmt.Errorf("cc: %s: output parameter %q must be dereferenced", e.Pos, e.Name)
		case SymArray, SymConstArray, SymArrayParam:
			return nil, fmt.Errorf("cc: %s: array %q used without index", e.Pos, e.Name)
		}
		ck.info.Refs[e] = sym
		ck.info.Types[e] = sym.Type
		return sym.Type, nil
	case *Index:
		sym := sc.lookup(e.Base.Name)
		if sym == nil {
			return nil, fmt.Errorf("cc: %s: undeclared array %q", e.Pos, e.Base.Name)
		}
		at, ok := sym.Type.(ArrayType)
		if !ok {
			return nil, fmt.Errorf("cc: %s: %q is not an array", e.Pos, e.Base.Name)
		}
		if len(e.Idx) != len(at.Dims) {
			return nil, fmt.Errorf("cc: %s: %q has %d dimensions, indexed with %d",
				e.Pos, e.Base.Name, len(at.Dims), len(e.Idx))
		}
		for _, ix := range e.Idx {
			if _, err := ck.checkExpr(ix, sc); err != nil {
				return nil, err
			}
		}
		ck.info.Refs[e.Base] = sym
		ck.info.Refs[e] = sym
		ck.info.Types[e] = at.Elem
		return at.Elem, nil
	case *Deref:
		if err := ck.checkLValue(e, sc); err != nil {
			return nil, err
		}
		return ck.info.Types[e], nil
	case *Unary:
		xt, err := ck.checkExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		it, ok := xt.(IntType)
		if !ok {
			return nil, fmt.Errorf("cc: %s: unary %s on non-integer", e.Pos, e.Op)
		}
		var t IntType
		switch e.Op {
		case BANG:
			t = UInt1
		default: // MINUS, TILDE operate on the promoted operand
			t = integerPromote(it)
		}
		ck.info.Types[e] = t
		return t, nil
	case *Binary:
		xt, err := ck.checkExpr(e.X, sc)
		if err != nil {
			return nil, err
		}
		yt, err := ck.checkExpr(e.Y, sc)
		if err != nil {
			return nil, err
		}
		xi, xok := xt.(IntType)
		yi, yok := yt.(IntType)
		if !xok || !yok {
			return nil, fmt.Errorf("cc: %s: binary %s on non-integer operands", e.Pos, e.Op)
		}
		var t IntType
		switch e.Op {
		case LT, LE, GT, GE, EQ, NE, LAND, LOR:
			t = UInt1
		case SHL, SHR:
			t = integerPromote(xi) // the result has the promoted left type
		default:
			t = promote(xi, yi)
		}
		ck.info.Types[e] = t
		return t, nil
	case *CondExpr:
		if _, err := ck.checkExpr(e.Cond, sc); err != nil {
			return nil, err
		}
		tt, err := ck.checkExpr(e.Then, sc)
		if err != nil {
			return nil, err
		}
		ft, err := ck.checkExpr(e.Else, sc)
		if err != nil {
			return nil, err
		}
		ti, tok := tt.(IntType)
		fi, fok := ft.(IntType)
		if !tok || !fok {
			return nil, fmt.Errorf("cc: %s: non-integer conditional arms", e.Pos)
		}
		t := promote(ti, fi)
		ck.info.Types[e] = t
		return t, nil
	case *Call:
		return ck.checkCall(e, sc)
	default:
		return nil, fmt.Errorf("cc: unexpected expression %T", e)
	}
}

func (ck *checker) checkCall(e *Call, sc *scope) (Type, error) {
	if t, ok := IsCastIntrinsic(e.Name); ok {
		if len(e.Args) != 1 {
			return nil, fmt.Errorf("cc: %s: cast takes one operand", e.Pos)
		}
		if _, err := ck.checkExpr(e.Args[0], sc); err != nil {
			return nil, err
		}
		ck.info.Types[e] = t
		return t, nil
	}
	switch e.Name {
	case IntrinsicLoadPrev:
		if len(e.Args) != 1 {
			return nil, fmt.Errorf("cc: %s: %s takes one argument", e.Pos, e.Name)
		}
		id, ok := e.Args[0].(*Ident)
		if !ok {
			return nil, fmt.Errorf("cc: %s: %s argument must be a variable", e.Pos, e.Name)
		}
		sym := sc.lookup(id.Name)
		if sym == nil {
			return nil, fmt.Errorf("cc: %s: undeclared variable %q", id.Pos, id.Name)
		}
		ck.info.Refs[id] = sym
		t := sym.Elem()
		ck.info.Types[id] = t
		ck.info.Types[e] = t
		return t, nil
	case IntrinsicStoreNext:
		if len(e.Args) != 2 {
			return nil, fmt.Errorf("cc: %s: %s takes two arguments", e.Pos, e.Name)
		}
		id, ok := e.Args[0].(*Ident)
		if !ok {
			return nil, fmt.Errorf("cc: %s: %s target must be a variable", e.Pos, e.Name)
		}
		sym := sc.lookup(id.Name)
		if sym == nil {
			return nil, fmt.Errorf("cc: %s: undeclared variable %q", id.Pos, id.Name)
		}
		ck.info.Refs[id] = sym
		ck.info.Types[id] = sym.Elem()
		if _, err := ck.checkExpr(e.Args[1], sc); err != nil {
			return nil, err
		}
		ck.info.Types[e] = VoidType{}
		return VoidType{}, nil
	}
	callee, ok := ck.info.Funcs[e.Name]
	if !ok {
		return nil, fmt.Errorf("cc: %s: call to undefined function %q", e.Pos, e.Name)
	}
	ck.calls[ck.fn.Name] = append(ck.calls[ck.fn.Name], e.Name)
	var scalarParams []Param
	for _, prm := range callee.Params {
		if _, isInt := prm.Type.(IntType); isInt {
			scalarParams = append(scalarParams, prm)
		}
	}
	if len(e.Args) != len(scalarParams) {
		return nil, fmt.Errorf("cc: %s: %q expects %d scalar arguments, got %d",
			e.Pos, e.Name, len(scalarParams), len(e.Args))
	}
	for _, a := range e.Args {
		if _, err := ck.checkExpr(a, sc); err != nil {
			return nil, err
		}
	}
	ck.info.Types[e] = callee.Ret
	return callee.Ret, nil
}

// checkNoRecursion rejects direct or mutual recursion, one of the
// paper's stated restrictions on accepted C code.
func (ck *checker) checkNoRecursion() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		color[name] = gray
		for _, callee := range ck.calls[name] {
			switch color[callee] {
			case gray:
				return fmt.Errorf("cc: recursion involving %q is not supported", callee)
			case white:
				if err := visit(callee); err != nil {
					return err
				}
			}
		}
		color[name] = black
		return nil
	}
	for name := range ck.info.Funcs {
		if color[name] == white {
			if err := visit(name); err != nil {
				return err
			}
		}
	}
	return nil
}
