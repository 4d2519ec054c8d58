package lint

// hotpathalloc enforces the repo's per-cycle allocation contract: the
// simulator's inner loops (Step/Drain, RunN's batch classes, the
// smart-buffer pop paths, the controller ticks) run millions of times
// per Run and must not allocate or dispatch dynamically per call.
//
// Two directives opt code in:
//
//	//roccc:hotpath          — the whole function body is hot
//	//roccc:hotpath-closures — only func literals inside are hot
//	                           (plan-compile functions allocate freely
//	                           while building, but the step/lane
//	                           closures they return run per cycle)
//
// Inside hot code the analyzer flags:
//
//   - append whose destination is not a sliced backing array
//     (append(buf[:0], ...) reuses; bare append grows);
//   - ranging over a map (runtime-randomized iteration, hidden
//     hashing cost);
//   - calls into package fmt, and string concatenation — both build
//     garbage per call;
//   - explicit conversions to interface types — each one may box.
//
// fmt calls, string concatenation and interface conversions inside a
// return statement are exempt: fault paths like
// `return nil, fmt.Errorf(...)` abort the hot loop, so their cost is
// paid once, not per cycle.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc is the per-cycle allocation analyzer.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid per-cycle allocation in //roccc:hotpath functions",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch {
			case hasDirective(fd.Doc, "roccc:hotpath"):
				checkHotBody(pass, fd.Body, fd.Name.Name)
			case hasDirective(fd.Doc, "roccc:hotpath-closures"):
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						checkHotBody(pass, fl.Body, fd.Name.Name+" closure")
						return false // checkHotBody covers nested literals
					}
					return true
				})
			}
		}
	}
	return nil
}

// checkHotBody walks one hot function body keeping an ancestor stack,
// so abort paths (inside a return statement) can be exempted.
func checkHotBody(pass *Pass, body *ast.BlockStmt, where string) {
	var stack []ast.Node
	inReturn := func() bool {
		for _, n := range stack {
			if _, ok := n.(*ast.ReturnStmt); ok {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, n, where, inReturn())
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					pass.Reportf(n.Pos(), "%s is hot (//roccc:hotpath): map iteration hashes and randomizes per call", where)
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pass, n) && !isConstExpr(pass, n) && !inReturn() {
				pass.Reportf(n.Pos(), "%s is hot (//roccc:hotpath): string concatenation allocates per call", where)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "%s is hot (//roccc:hotpath): string concatenation allocates per call", where)
			}
		}
		return true
	})
}

func checkHotCall(pass *Pass, call *ast.CallExpr, where string, inReturn bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
			if _, reuse := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !reuse {
				pass.Reportf(call.Pos(), "%s is hot (//roccc:hotpath): append may grow per call; append to a resliced backing array (buf[:0]) or pre-size outside the loop", where)
			}
			return
		}
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.Info.Uses[x].(*types.PkgName); ok && pn.Imported().Path() == "fmt" && !inReturn {
				pass.Reportf(call.Pos(), "%s is hot (//roccc:hotpath): fmt.%s allocates per call; only abort paths (inside return) may format", where, fun.Sel.Name)
				return
			}
		}
	}
	// Explicit conversion to an interface type boxes its operand.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 && !inReturn {
		if types.IsInterface(tv.Type) {
			if at := pass.Info.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				pass.Reportf(call.Pos(), "%s is hot (//roccc:hotpath): conversion to interface %s boxes per call", where, tv.Type)
			}
		}
	}
}

func isStringExpr(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}
