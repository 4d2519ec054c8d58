package hir

// walk.go holds the traversal and substitution helpers shared by the
// transformation passes.

// VisitExprs calls fn on every expression in the statement list,
// bottom-up, replacing each expression with fn's result.
func VisitExprs(list []Stmt, fn func(Expr) Expr) {
	for _, s := range list {
		visitStmtExprs(s, fn)
	}
}

func visitStmtExprs(s Stmt, fn func(Expr) Expr) {
	switch s := s.(type) {
	case *Assign:
		s.Src = visitExpr(s.Src, fn)
	case *StoreNext:
		s.Src = visitExpr(s.Src, fn)
	case *Store:
		for i := range s.Idx {
			s.Idx[i] = visitExpr(s.Idx[i], fn)
		}
		s.Src = visitExpr(s.Src, fn)
	case *If:
		s.Cond = visitExpr(s.Cond, fn)
		VisitExprs(s.Then, fn)
		VisitExprs(s.Else, fn)
	case *For:
		s.From = visitExpr(s.From, fn)
		s.To = visitExpr(s.To, fn)
		VisitExprs(s.Body, fn)
	}
}

func visitExpr(e Expr, fn func(Expr) Expr) Expr {
	switch e := e.(type) {
	case *Load:
		for i := range e.Idx {
			e.Idx[i] = visitExpr(e.Idx[i], fn)
		}
	case *LutRef:
		e.Idx = visitExpr(e.Idx, fn)
	case *Un:
		e.X = visitExpr(e.X, fn)
	case *Bin:
		e.X = visitExpr(e.X, fn)
		e.Y = visitExpr(e.Y, fn)
	case *Sel:
		e.Cond = visitExpr(e.Cond, fn)
		e.Then = visitExpr(e.Then, fn)
		e.Else = visitExpr(e.Else, fn)
	case *Cast:
		e.X = visitExpr(e.X, fn)
	}
	return fn(e)
}

// SubstVar replaces every read of v in list with (a clone of) repl.
func SubstVar(list []Stmt, v *Var, repl Expr) {
	VisitExprs(list, func(e Expr) Expr {
		if ref, ok := e.(*VarRef); ok && ref.Var == v {
			return CloneExpr(repl)
		}
		return e
	})
}

// AssignedVars returns the set of scalar variables written anywhere in
// the statement list (including loop induction variables and feedback
// targets).
func AssignedVars(list []Stmt) map[*Var]bool {
	set := map[*Var]bool{}
	var scan func([]Stmt)
	scan = func(ss []Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				set[s.Dst] = true
			case *StoreNext:
				set[s.Var] = true
			case *If:
				scan(s.Then)
				scan(s.Else)
			case *For:
				set[s.Var] = true
				scan(s.Body)
			}
		}
	}
	scan(list)
	return set
}

// UsedVars returns the set of scalar variables read anywhere in the
// statement list.
func UsedVars(list []Stmt) map[*Var]bool {
	set := map[*Var]bool{}
	VisitExprs(list, func(e Expr) Expr {
		switch e := e.(type) {
		case *VarRef:
			set[e.Var] = true
		case *LoadPrev:
			set[e.Var] = true
		}
		return e
	})
	return set
}

// exprUses reports whether expression e reads any variable in set.
func exprUses(e Expr, set map[*Var]bool) bool {
	found := false
	visitExpr(CloneExpr(e), func(x Expr) Expr {
		switch x := x.(type) {
		case *VarRef:
			if set[x.Var] {
				found = true
			}
		case *LoadPrev:
			if set[x.Var] {
				found = true
			}
		}
		return x
	})
	return found
}

// exprReadsMemory reports whether e contains an array load.
func exprReadsMemory(e Expr) bool {
	found := false
	visitExpr(CloneExpr(e), func(x Expr) Expr {
		if _, ok := x.(*Load); ok {
			found = true
		}
		return x
	})
	return found
}

// HasLoops reports whether the statement list contains a For.
func HasLoops(list []Stmt) bool {
	for _, s := range list {
		switch s := s.(type) {
		case *For:
			return true
		case *If:
			if HasLoops(s.Then) || HasLoops(s.Else) {
				return true
			}
		}
	}
	return false
}
