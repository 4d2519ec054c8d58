package lint

// poolhygiene enforces the SystemPool checkout protocol: every system
// taken with Get must be returned with Put (the pool's worker count is
// its concurrency budget — a dropped handle permanently shrinks it) or
// must provably leave the function (returned, stored, or sent onward,
// making the new holder responsible).
//
// The check is per function: a function that calls SystemPool.Get must
// either also call SystemPool.Put (anywhere, including deferred — the
// analyzer does not prove path coverage, it catches the forgotten-Put
// shape), or the checked-out value must escape. Discarding the result
// (`p.Get()` as a statement, or assigning the system to _) is always a
// leak.

import (
	"go/ast"
	"go/types"
)

// PoolHygiene is the SystemPool Get/Put pairing analyzer.
var PoolHygiene = &Analyzer{
	Name: "poolhygiene",
	Doc:  "require every SystemPool.Get to be paired with a Put or to escape",
	Run:  runPoolHygiene,
}

// poolTypeName matches the receiver's named type; the fixture declares
// its own SystemPool, so the check is name-based, not path-based.
const poolTypeName = "SystemPool"

func runPoolHygiene(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolBody(pass, fd.Body)
		}
	}
	return nil
}

func checkPoolBody(pass *Pass, body *ast.BlockStmt) {
	hasPut := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && poolMethodType(pass, call, "Put") != "" {
			hasPut = true
		}
		return !hasPut
	})

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tname := poolMethodType(pass, call, "Get")
		if tname == "" || hasPut {
			return true
		}
		obj := getResultObj(pass, body, call)
		if obj == nil {
			pass.Reportf(call.Pos(), "%s.Get result is discarded: the checked-out value can never be Put back", tname)
			return true
		}
		if !escapes(pass, body, obj) {
			pass.Reportf(call.Pos(), "%s.Get without a Put: %s neither returns to the pool nor escapes", tname, obj.Name())
		}
		return true
	})
}

// poolMethodType reports the receiver type name when call invokes the
// named method on a value whose (possibly pointed-to) named type is
// poolTypeName, "" otherwise.
func poolMethodType(pass *Pass, call *ast.CallExpr, method string) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Name() != method {
		return ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != poolTypeName {
		return ""
	}
	return named.Obj().Name()
}

// getResultObj finds the variable the Get call's first result is bound
// to: nil when the call is a bare statement or the system goes to _.
func getResultObj(pass *Pass, body *ast.BlockStmt, call *ast.CallExpr) types.Object {
	var obj types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || as.Rhs[0] != ast.Expr(call) {
			return true
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
			if o := pass.Info.Defs[id]; o != nil {
				obj = o
			} else {
				obj = pass.Info.Uses[id]
			}
		}
		return false
	})
	return obj
}

// escapes reports whether the checked-out system leaves the function:
// returned, sent on a channel, stored in a composite literal, or
// assigned through a selector/index (a field, map or slice visible to
// the caller). A plain call argument does not transfer responsibility.
func escapes(pass *Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	usesObj := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
				hit = true
			}
			return !hit
		})
		return hit
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if usesObj(r) {
					found = true
				}
			}
		case *ast.SendStmt:
			if usesObj(n.Value) {
				found = true
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if usesObj(e) {
					found = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && usesObj(rhs) {
					switch n.Lhs[i].(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}
