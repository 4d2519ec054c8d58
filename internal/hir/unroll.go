package hir

import "fmt"

// unroll.go implements loop unrolling. "Full loop unrolling converts a
// for-loop with constant bounds into a non-iterative block of code and
// therefore eliminates the loop controller" (§2); partial unrolling
// widens the data path by replicating the body.

// TripCount returns the constant trip count of a loop, or false when the
// bounds are not compile-time constants.
func TripCount(l *For) (int64, bool) {
	from, ok1 := l.From.(*Const)
	to, ok2 := l.To.(*Const)
	if !ok1 || !ok2 || l.Step <= 0 {
		return 0, false
	}
	if to.Val <= from.Val {
		return 0, true
	}
	return (to.Val - from.Val + l.Step - 1) / l.Step, true
}

// UnrollFull replaces a constant-bound loop with its fully-unrolled body
// and returns the resulting statement list.
func UnrollFull(l *For) ([]Stmt, error) {
	n, ok := TripCount(l)
	if !ok {
		return nil, fmt.Errorf("hir: cannot fully unroll %s: bounds are not constant", l.Var.Name)
	}
	const maxTrip = 4096
	if n > maxTrip {
		return nil, fmt.Errorf("hir: refusing to fully unroll %d iterations (max %d)", n, maxTrip)
	}
	from := l.From.(*Const).Val
	var out []Stmt
	for it := int64(0); it < n; it++ {
		iv := from + it*l.Step
		body := CloneStmts(l.Body)
		SubstVar(body, l.Var, &Const{Val: iv, Typ: l.Var.Type})
		out = append(out, body...)
	}
	return foldStmts(out), nil
}

// UnrollBy replicates the loop body factor times per iteration,
// multiplying the step. The trip count must be a constant multiple of
// factor.
func UnrollBy(l *For, factor int64) (*For, error) {
	if factor <= 1 {
		return l, nil
	}
	n, ok := TripCount(l)
	if !ok {
		return nil, fmt.Errorf("hir: cannot unroll %s: bounds are not constant", l.Var.Name)
	}
	if n%factor != 0 {
		return nil, fmt.Errorf("hir: trip count %d is not a multiple of unroll factor %d", n, factor)
	}
	var body []Stmt
	for k := int64(0); k < factor; k++ {
		copyK := CloneStmts(l.Body)
		if k > 0 {
			// i is replaced by i + k*step in the k-th replica.
			SubstVar(copyK, l.Var, &Bin{
				Op:  OpAdd,
				X:   &VarRef{Var: l.Var},
				Y:   &Const{Val: k * l.Step, Typ: l.Var.Type},
				Typ: l.Var.Type,
			})
		}
		body = append(body, copyK...)
	}
	return &For{Var: l.Var, From: l.From, To: l.To, Step: l.Step * factor, Body: foldStmts(body)}, nil
}

// UnrollAll fully unrolls every constant-bound loop in the function,
// innermost first. Loops whose bounds are unknown are left in place.
func UnrollAll(f *Func) {
	f.Body = unrollAllStmts(f.Body)
	Fold(f)
}

func unrollAllStmts(list []Stmt) []Stmt {
	var out []Stmt
	for _, s := range list {
		switch s := s.(type) {
		case *For:
			s.Body = unrollAllStmts(s.Body)
			if expanded, err := UnrollFull(s); err == nil {
				out = append(out, expanded...)
				continue
			}
			out = append(out, s)
		case *If:
			s.Then = unrollAllStmts(s.Then)
			s.Else = unrollAllStmts(s.Else)
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	return out
}
