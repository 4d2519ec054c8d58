package hir

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"roccc/internal/cc"
)

// scalarrepl.go implements the paper's scalar replacement transformation
// (§4.1, Fig. 3): memory accesses in the innermost loop body are
// isolated from the computation. Array reads affine in the loop
// induction variables become fresh input scalars (the sliding window fed
// by the smart buffer), array writes become output scalars, and the
// remaining pure-scalar region is exported to the data path generator.

// Affine is a decomposed index expression: Scale*Var + Offset.
type Affine struct {
	Var    *Var // nil when the index is constant
	Scale  int64
	Offset int64
}

// DecomposeAffine decomposes e into scale*iv + offset where iv is one of
// the given loop variables (or none, for constants).
func DecomposeAffine(e Expr, loopVars map[*Var]bool) (Affine, bool) {
	switch e := e.(type) {
	case *Const:
		return Affine{Offset: e.Val}, true
	case *VarRef:
		if loopVars[e.Var] {
			return Affine{Var: e.Var, Scale: 1}, true
		}
		return Affine{}, false
	case *Cast:
		return DecomposeAffine(e.X, loopVars)
	case *Un:
		if e.Op != OpNeg {
			return Affine{}, false
		}
		a, ok := DecomposeAffine(e.X, loopVars)
		if !ok {
			return Affine{}, false
		}
		return Affine{Var: a.Var, Scale: -a.Scale, Offset: -a.Offset}, true
	case *Bin:
		ax, okx := DecomposeAffine(e.X, loopVars)
		ay, oky := DecomposeAffine(e.Y, loopVars)
		if !okx || !oky {
			return Affine{}, false
		}
		switch e.Op {
		case OpAdd:
			return combineAffine(ax, ay, 1)
		case OpSub:
			return combineAffine(ax, ay, -1)
		case OpMul:
			if ax.Var == nil {
				return Affine{Var: ay.Var, Scale: ax.Offset * ay.Scale, Offset: ax.Offset * ay.Offset}, true
			}
			if ay.Var == nil {
				return Affine{Var: ax.Var, Scale: ay.Offset * ax.Scale, Offset: ay.Offset * ax.Offset}, true
			}
		case OpShl:
			if ay.Var == nil && ay.Offset >= 0 && ay.Offset < 31 {
				f := int64(1) << uint(ay.Offset)
				return Affine{Var: ax.Var, Scale: ax.Scale * f, Offset: ax.Offset * f}, true
			}
		}
		return Affine{}, false
	default:
		return Affine{}, false
	}
}

func combineAffine(a, b Affine, sign int64) (Affine, bool) {
	if a.Var != nil && b.Var != nil && a.Var != b.Var {
		return Affine{}, false
	}
	v := a.Var
	if v == nil {
		v = b.Var
	}
	return Affine{Var: v, Scale: a.Scale + sign*b.Scale, Offset: a.Offset + sign*b.Offset}, true
}

// WindowElem is one tap of a sliding window: the constant offset vector
// (one entry per indexed dimension) and the data-path scalar carrying it.
type WindowElem struct {
	Offsets []int64
	Elem    *Var
}

// Window is the per-array read access pattern extracted by scalar
// replacement. The smart buffer generator consumes it.
type Window struct {
	Arr   *Array
	Dims  []WindowDim  // per-dimension induction variable and scale
	Elems []WindowElem // sorted by offset vector
}

// WindowDim describes how one array dimension is indexed.
type WindowDim struct {
	Var   *Var
	Scale int64
}

// Span returns, for dimension d, the lowest offset and the window extent
// (max-min+1) over that dimension.
func (w *Window) Span(d int) (min, extent int64) {
	min = w.Elems[0].Offsets[d]
	max := min
	for _, e := range w.Elems[1:] {
		if e.Offsets[d] < min {
			min = e.Offsets[d]
		}
		if e.Offsets[d] > max {
			max = e.Offsets[d]
		}
	}
	return min, max - min + 1
}

// WriteAccess is the per-array write pattern: each written offset vector
// and the data-path scalar that produces it.
type WriteAccess struct {
	Arr   *Array
	Dims  []WindowDim
	Elems []WindowElem
}

// FeedbackVar is a loop-carried scalar detected by the front-end
// data-flow analysis (§4.2.1, Fig. 4).
type FeedbackVar struct {
	Var  *Var  // the architectural state (latch)
	Out  *Var  // data-path output carrying the new value each iteration
	Init int64 // latch reset value
}

// LoopNest is the canonicalized counted-loop nest (outermost first).
type LoopNest struct {
	Vars []*Var
	From []int64
	To   []int64
	Step []int64
}

// Depth returns the nest depth.
func (n *LoopNest) Depth() int { return len(n.Vars) }

// Trips returns the trip count of level d.
func (n *LoopNest) Trips(d int) int64 {
	if n.Step[d] <= 0 {
		return 0
	}
	if n.To[d] <= n.From[d] {
		return 0
	}
	return (n.To[d] - n.From[d] + n.Step[d] - 1) / n.Step[d]
}

// TotalIterations returns the product of all trip counts.
func (n *LoopNest) TotalIterations() int64 {
	total := int64(1)
	for d := range n.Vars {
		total *= n.Trips(d)
	}
	return total
}

// Kernel is the result of the front end: the pure scalar data-path
// function plus everything the controller/buffer generators need.
type Kernel struct {
	Name string
	// DP is the exported data-path function (Fig. 3(c) / Fig. 4(c)):
	// straight-line or if/else scalar code, no loops, no memory.
	DP *Func
	// Nest is the surrounding loop nest; empty for pure combinational
	// kernels (no loops in the source).
	Nest LoopNest
	// Reads are per-array sliding windows feeding DP's inputs.
	Reads []*Window
	// Writes are per-array store patterns fed by DP's outputs.
	Writes []*WriteAccess
	// IVInputs are DP inputs that carry loop induction variable values
	// (when the computation uses the index itself).
	IVInputs map[*Var]*Var // loop var -> DP param
	// Feedback lists loop-carried scalars with their latches.
	Feedback []*FeedbackVar
	// ScalarParams are kernel-level scalar inputs passed through to DP.
	ScalarParams []*Var
	// Roms referenced by the data path.
	Roms []*Rom

	// PlanCache holds opaque compiled artifacts keyed by downstream
	// packages (smartbuf's buffer configurations per bus width, netlist's
	// system plan per datapath and bus width). Living on the kernel — not
	// in a global map — the cache is reclaimed exactly when the kernel is,
	// so sweep-style reuse skips recompilation without pinning every
	// kernel ever compiled.
	PlanCache sync.Map
}

// Streams reports whether k streams through smart buffers: it has a
// loop nest and a read window.
func (k *Kernel) Streams() bool { return k.Nest.Depth() > 0 && len(k.Reads) > 0 }

// ExtractKernel runs scalar replacement and feedback detection on f and
// builds the Kernel. The function body must be (a) optional feedback
// initializers, (b) one perfect loop nest, or (c) loop-free scalar code.
func ExtractKernel(p *Program, f *Func) (*Kernel, error) {
	k := &Kernel{
		Name:     f.Name,
		IVInputs: map[*Var]*Var{},
	}
	dp := &Func{Name: f.Name + "_dp"}
	k.DP = dp

	// Collect ROMs referenced anywhere in the function.
	romSet := map[*Rom]bool{}
	VisitExprs(f.Body, func(e Expr) Expr {
		if lr, ok := e.(*LutRef); ok {
			romSet[lr.Rom] = true
		}
		return e
	})
	for _, r := range p.Roms {
		if romSet[r] {
			k.Roms = append(k.Roms, r)
		}
	}

	// Split the body: leading scalar assignments (feedback initializers),
	// a single loop nest, trailing statements (currently rejected). A
	// body with no top-level loop is a pure combinational kernel.
	var pre []Stmt
	var nest []*For
	body := f.Body
	hasTopLoop := false
	for _, s := range body {
		if _, ok := s.(*For); ok {
			hasTopLoop = true
			break
		}
	}
	i := 0
	if hasTopLoop {
		for ; i < len(body); i++ {
			if a, ok := body[i].(*Assign); ok {
				pre = append(pre, a)
				continue
			}
			break
		}
		l, ok := body[i].(*For)
		if !ok {
			return nil, fmt.Errorf("hir: kernel %s: unsupported statement %T before the loop nest", f.Name, body[i])
		}
		if i+1 != len(body) {
			return nil, fmt.Errorf("hir: kernel %s: statements after the loop nest are not supported", f.Name)
		}
		// Walk into the perfect nest.
		for {
			nest = append(nest, l)
			if len(l.Body) == 1 {
				if inner, ok := l.Body[0].(*For); ok {
					l = inner
					continue
				}
			}
			if HasLoops(l.Body) {
				return nil, fmt.Errorf("hir: kernel %s: imperfect loop nests are not supported (unroll inner loops first)", f.Name)
			}
			break
		}
	}

	if len(nest) == 0 {
		// Pure combinational kernel: the body is already the data path.
		if HasLoops(body) {
			return nil, fmt.Errorf("hir: kernel %s: loops must be at top level or fully unrolled", f.Name)
		}
		dp.Params = append(dp.Params, f.Params...)
		k.ScalarParams = f.Params
		dp.Outs = append(dp.Outs, f.Outs...)
		dp.Body = CloneStmts(body)
		if err := detectFeedback(k, nil); err != nil {
			return nil, err
		}
		return k, fixupDP(k)
	}

	// Canonicalize nest bounds to constants.
	loopVars := map[*Var]bool{}
	for _, l := range nest {
		from, ok1 := l.From.(*Const)
		to, ok2 := l.To.(*Const)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("hir: kernel %s: loop bounds must be compile-time constants", f.Name)
		}
		k.Nest.Vars = append(k.Nest.Vars, l.Var)
		k.Nest.From = append(k.Nest.From, from.Val)
		k.Nest.To = append(k.Nest.To, to.Val)
		k.Nest.Step = append(k.Nest.Step, l.Step)
		loopVars[l.Var] = true
	}

	inner := nest[len(nest)-1]
	dpBody := CloneStmts(inner.Body)

	// Replace array reads with window input scalars.
	readWins := map[*Array]*Window{}
	var replaceErr error
	VisitExprs(dpBody, func(e Expr) Expr {
		ld, ok := e.(*Load)
		if !ok || replaceErr != nil {
			return e
		}
		elem, err := windowElemFor(k, readWins, ld, loopVars, dp)
		if err != nil {
			replaceErr = err
			return e
		}
		return &VarRef{Var: elem}
	})
	if replaceErr != nil {
		return nil, replaceErr
	}

	// Replace array writes with output scalars.
	writeAccs := map[*Array]*WriteAccess{}
	dpBody, replaceErr = replaceStores(k, writeAccs, dpBody, loopVars, dp)
	if replaceErr != nil {
		return nil, replaceErr
	}

	// Induction variables used directly in the computation become DP
	// inputs fed by the address generator.
	used := UsedVars(dpBody)
	for _, iv := range k.Nest.Vars {
		if used[iv] {
			in := &Var{Name: iv.Name + "_iv", Type: iv.Type, Kind: VarParam}
			SubstVar(dpBody, iv, &VarRef{Var: in})
			dp.Params = append(dp.Params, in)
			k.IVInputs[iv] = in
		}
	}

	// Kernel-level scalar parameters referenced in the body pass through.
	for _, prm := range f.Params {
		if used[prm] {
			dp.Params = append(dp.Params, prm)
			k.ScalarParams = append(k.ScalarParams, prm)
		}
	}

	dp.Body = dpBody
	if err := detectFeedback(k, pre); err != nil {
		return nil, err
	}
	// Deterministic ordering for reads/writes (by array name).
	sortWindows(k)
	return k, fixupDP(k)
}

// windowElemFor finds or creates the window input scalar for a load.
func windowElemFor(k *Kernel, wins map[*Array]*Window, ld *Load, loopVars map[*Var]bool, dp *Func) (*Var, error) {
	offs := make([]int64, len(ld.Idx))
	dims := make([]WindowDim, len(ld.Idx))
	for d, ix := range ld.Idx {
		a, ok := DecomposeAffine(FoldExpr(CloneExpr(ix)), loopVars)
		if !ok {
			return nil, fmt.Errorf("hir: non-affine index %q on array %s", ExprString(ix), ld.Arr.Name)
		}
		offs[d] = a.Offset
		dims[d] = WindowDim{Var: a.Var, Scale: a.Scale}
	}
	w := wins[ld.Arr]
	if w == nil {
		w = &Window{Arr: ld.Arr, Dims: dims}
		wins[ld.Arr] = w
		k.Reads = append(k.Reads, w)
	} else if err := checkDims(w.Dims, dims, ld.Arr.Name); err != nil {
		return nil, err
	}
	for _, e := range w.Elems {
		if offsEqual(e.Offsets, offs) {
			return e.Elem, nil
		}
	}
	elem := &Var{
		Name: ld.Arr.Name + strconv.Itoa(len(w.Elems)),
		Type: ld.Arr.Elem,
		Kind: VarParam,
	}
	w.Elems = append(w.Elems, WindowElem{Offsets: offs, Elem: elem})
	dp.Params = append(dp.Params, elem)
	return elem, nil
}

func replaceStores(k *Kernel, accs map[*Array]*WriteAccess, list []Stmt, loopVars map[*Var]bool, dp *Func) ([]Stmt, error) {
	var out []Stmt
	for _, s := range list {
		switch s := s.(type) {
		case *Store:
			offs := make([]int64, len(s.Idx))
			dims := make([]WindowDim, len(s.Idx))
			for d, ix := range s.Idx {
				a, ok := DecomposeAffine(FoldExpr(CloneExpr(ix)), loopVars)
				if !ok {
					return nil, fmt.Errorf("hir: non-affine store index %q on array %s", ExprString(ix), s.Arr.Name)
				}
				offs[d] = a.Offset
				dims[d] = WindowDim{Var: a.Var, Scale: a.Scale}
			}
			acc := accs[s.Arr]
			if acc == nil {
				acc = &WriteAccess{Arr: s.Arr, Dims: dims}
				accs[s.Arr] = acc
				k.Writes = append(k.Writes, acc)
			} else if err := checkDims(acc.Dims, dims, s.Arr.Name); err != nil {
				return nil, err
			}
			var outVar *Var
			for _, e := range acc.Elems {
				if offsEqual(e.Offsets, offs) {
					outVar = e.Elem
					break
				}
			}
			if outVar == nil {
				outVar = &Var{
					Name: "Tmp" + strconv.Itoa(totalWriteElems(k)),
					Type: s.Arr.Elem,
					Kind: VarOut,
				}
				acc.Elems = append(acc.Elems, WindowElem{Offsets: offs, Elem: outVar})
				dp.Outs = append(dp.Outs, outVar)
			}
			out = append(out, &Assign{Dst: outVar, Src: s.Src})
		case *If:
			thenStmts, err := replaceStores(k, accs, s.Then, loopVars, dp)
			if err != nil {
				return nil, err
			}
			elseStmts, err := replaceStores(k, accs, s.Else, loopVars, dp)
			if err != nil {
				return nil, err
			}
			out = append(out, &If{Cond: s.Cond, Then: thenStmts, Else: elseStmts})
		default:
			out = append(out, s)
		}
	}
	return out, nil
}

func totalWriteElems(k *Kernel) int {
	n := 0
	for _, w := range k.Writes {
		n += len(w.Elems)
	}
	return n
}

func checkDims(a, b []WindowDim, name string) error {
	if len(a) != len(b) {
		return fmt.Errorf("hir: inconsistent dimensionality on array %s", name)
	}
	for d := range a {
		if a[d].Var != b[d].Var || a[d].Scale != b[d].Scale {
			return fmt.Errorf("hir: accesses to %s mix induction variables or strides", name)
		}
	}
	return nil
}

func offsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// detectFeedback finds loop-carried scalars in the DP body: variables
// read before (or without) being written in the body, and written in the
// body. It rewrites reads of the previous value to LoadPrev, the write
// to StoreNext, and exposes the new value as a DP output (Fig. 4(c)).
// pre holds initializer assignments preceding the loop; constant
// initializers become latch reset values.
func detectFeedback(k *Kernel, pre []Stmt) error {
	dp := k.DP
	inputs := map[*Var]bool{}
	for _, p := range dp.Params {
		inputs[p] = true
	}
	outputs := map[*Var]bool{}
	for _, o := range dp.Outs {
		outputs[o] = true
	}
	// Candidates: globals or locals that are (a) possibly read before
	// written in a straight-line scan, and (b) written somewhere.
	assigned := AssignedVars(dp.Body)
	candidates := readBeforeWrite(dp.Body)
	var fbVars []*Var
	for v := range candidates {
		if inputs[v] || outputs[v] || v.Kind == VarLoop {
			continue
		}
		if assigned[v] {
			fbVars = append(fbVars, v)
		}
	}
	sort.Slice(fbVars, func(i, j int) bool { return fbVars[i].Name < fbVars[j].Name })

	inits := map[*Var]int64{}
	for _, s := range pre {
		if a, ok := s.(*Assign); ok {
			if c, ok2 := a.Src.(*Const); ok2 {
				inits[a.Dst] = c.Val
			}
		}
	}

	for _, v := range fbVars {
		init := v.Init
		if iv, ok := inits[v]; ok {
			init = iv
		}
		newVal := &Var{Name: v.Name + "_next", Type: v.Type, Kind: VarLocal}
		if err := rewriteFeedback(dp, v, newVal); err != nil {
			return err
		}
		outVar := &Var{Name: v.Name + "_out", Type: v.Type, Kind: VarOut}
		dp.Body = append(dp.Body, &Assign{Dst: outVar, Src: &VarRef{Var: newVal}})
		dp.Outs = append(dp.Outs, outVar)
		v.Kind = VarFeedback
		v.Init = init
		k.Feedback = append(k.Feedback, &FeedbackVar{Var: v, Out: outVar, Init: init})
	}
	return nil
}

// readBeforeWrite returns variables whose first access along some path
// through the statement list is a read.
func readBeforeWrite(list []Stmt) map[*Var]bool {
	reads := map[*Var]bool{}
	noteReads := func(e Expr, written map[*Var]bool) {
		visitExpr(CloneExpr(e), func(x Expr) Expr {
			if ref, ok := x.(*VarRef); ok && !written[ref.Var] {
				reads[ref.Var] = true
			}
			if lp, ok := x.(*LoadPrev); ok && !written[lp.Var] {
				reads[lp.Var] = true
			}
			return x
		})
	}
	var scan func([]Stmt, map[*Var]bool)
	scan = func(ss []Stmt, written map[*Var]bool) {
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				noteReads(s.Src, written)
				written[s.Dst] = true
			case *StoreNext:
				noteReads(s.Src, written)
				written[s.Var] = true
			case *Store:
				for _, ix := range s.Idx {
					noteReads(ix, written)
				}
				noteReads(s.Src, written)
			case *If:
				noteReads(s.Cond, written)
				thenW := copyVarSet(written)
				elseW := copyVarSet(written)
				scan(s.Then, thenW)
				scan(s.Else, elseW)
				// Written after the If only if written on both paths.
				for v := range thenW {
					if elseW[v] {
						written[v] = true
					}
				}
			case *For:
				scan(s.Body, written)
			}
		}
	}
	scan(list, map[*Var]bool{})
	return reads
}

func copyVarSet(m map[*Var]bool) map[*Var]bool {
	cp := make(map[*Var]bool, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// rewriteFeedback renames feedback variable v through the data-path body
// (an SSA-style renaming restricted to v): reads of the incoming value
// become LoadPrev(v); every write creates a fresh local carrying the new
// value; conditional writes are merged at the join by assigning a merge
// local on both paths (the back end turns that into a mux node). At the
// end, a single StoreNext(v, <final value>) latches the iteration's
// result, and newVal is assigned that final value.
func rewriteFeedback(dp *Func, v, newVal *Var) error {
	fresh := 0
	newTemp := func() *Var {
		fresh++
		return &Var{Name: v.Name + "_v" + strconv.Itoa(fresh), Type: v.Type, Kind: VarLocal}
	}
	// curr is the expression currently holding v's value.
	subst := func(e Expr, curr Expr) Expr {
		return visitExpr(e, func(x Expr) Expr {
			if ref, ok := x.(*VarRef); ok && ref.Var == v {
				return CloneExpr(curr)
			}
			return x
		})
	}
	var rewrite func(ss []Stmt, curr Expr) ([]Stmt, Expr)
	rewrite = func(ss []Stmt, curr Expr) ([]Stmt, Expr) {
		var out []Stmt
		for _, s := range ss {
			switch s := s.(type) {
			case *Assign:
				s.Src = subst(s.Src, curr)
				if s.Dst == v {
					t := newTemp()
					out = append(out, &Assign{Dst: t, Src: s.Src})
					curr = &VarRef{Var: t}
					continue
				}
				out = append(out, s)
			case *StoreNext:
				s.Src = subst(s.Src, curr)
				out = append(out, s)
			case *Store:
				for i := range s.Idx {
					s.Idx[i] = subst(s.Idx[i], curr)
				}
				s.Src = subst(s.Src, curr)
				out = append(out, s)
			case *If:
				s.Cond = subst(s.Cond, curr)
				thenStmts, thenCurr := rewrite(s.Then, curr)
				elseStmts, elseCurr := rewrite(s.Else, curr)
				if !sameValueExpr(thenCurr, elseCurr) {
					// The two paths carry different values: merge with a
					// local assigned on both paths (a phi/mux for the
					// back end).
					m := newTemp()
					thenStmts = append(thenStmts, &Assign{Dst: m, Src: thenCurr})
					elseStmts = append(elseStmts, &Assign{Dst: m, Src: elseCurr})
					curr = &VarRef{Var: m}
				} else {
					curr = thenCurr
				}
				s.Then, s.Else = thenStmts, elseStmts
				out = append(out, s)
			default:
				out = append(out, s)
			}
		}
		return out, curr
	}
	body, finalVal := rewrite(dp.Body, &LoadPrev{Var: v})
	body = append(body,
		&Assign{Dst: newVal, Src: finalVal},
		&StoreNext{Var: v, Src: &VarRef{Var: newVal}})
	dp.Body = body
	return nil
}

// sameValueExpr reports whether two renamed-value expressions are
// trivially the same value (same local or both the incoming LoadPrev).
func sameValueExpr(a, b Expr) bool {
	if ra, ok := a.(*VarRef); ok {
		if rb, ok2 := b.(*VarRef); ok2 {
			return ra.Var == rb.Var
		}
		return false
	}
	if la, ok := a.(*LoadPrev); ok {
		if lb, ok2 := b.(*LoadPrev); ok2 {
			return la.Var == lb.Var
		}
	}
	return false
}

func sortWindows(k *Kernel) {
	sort.Slice(k.Reads, func(i, j int) bool { return k.Reads[i].Arr.Name < k.Reads[j].Arr.Name })
	sort.Slice(k.Writes, func(i, j int) bool { return k.Writes[i].Arr.Name < k.Writes[j].Arr.Name })
	for _, w := range k.Reads {
		sortElems(w.Elems)
	}
	for _, w := range k.Writes {
		sortElems(w.Elems)
	}
}

func sortElems(elems []WindowElem) {
	sort.Slice(elems, func(i, j int) bool {
		a, b := elems[i].Offsets, elems[j].Offsets
		for d := range a {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
}

// fixupDP validates the exported data-path function: no loops, no
// residual memory accesses, and runs a final cleanup.
func fixupDP(k *Kernel) error {
	if HasLoops(k.DP.Body) {
		return fmt.Errorf("hir: kernel %s: data-path function still contains loops", k.Name)
	}
	bad := false
	VisitExprs(k.DP.Body, func(e Expr) Expr {
		if _, ok := e.(*Load); ok {
			bad = true
		}
		return e
	})
	for _, s := range k.DP.Body {
		if _, ok := s.(*Store); ok {
			bad = true
		}
	}
	if bad {
		return fmt.Errorf("hir: kernel %s: residual memory access in data path (non-affine index?)", k.Name)
	}
	Fold(k.DP)
	DCE(k.DP)
	return nil
}

// DataPathC renders the exported data-path function as C, mirroring the
// paper's Fig. 3(c)/Fig. 4(c) presentation.
func (k *Kernel) DataPathC() string {
	return FuncString(k.DP)
}

// Type alias re-export so callers get the element type conveniently.
type IntType = cc.IntType
