// Package core is the compiler driver: it chains the reproduction's
// phases exactly as Fig. 1 of the paper lays them out — C front end,
// loop-level optimization on the high-level IR, scalar replacement and
// feedback detection, SUIFvm lowering, CFG + SSA, and data-path
// generation with pipelining and bit-width inference.
package core

import (
	"fmt"

	"roccc/internal/cc"
	"roccc/internal/cfg"
	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/ssa"
	"roccc/internal/synth"
	"roccc/internal/vm"
)

// Options control compilation.
type Options struct {
	// UnrollAll fully unrolls every constant-bound loop before kernel
	// extraction ("full loop unrolling ... eliminates the loop
	// controller", §2). Used for bit-level kernels such as udiv and
	// square root.
	UnrollAll bool
	// UnrollFactor partially unrolls the innermost loop by this factor
	// (0 or 1 disables), widening the data path.
	UnrollFactor int64
	// Optimize enables CSE, copy propagation, invariant hoisting and DCE
	// (on by default through DefaultOptions).
	Optimize bool
	// PeriodNs is the target clock period for latch placement.
	PeriodNs float64
}

// DefaultOptions returns the standard optimizing configuration with a
// 5 ns (200 MHz) pipeline target.
func DefaultOptions() Options {
	return Options{Optimize: true, PeriodNs: 5.0}
}

// Result carries every intermediate representation of one compiled
// kernel, so tools and tests can inspect any stage.
type Result struct {
	Program  *hir.Program
	Func     *hir.Func
	Kernel   *hir.Kernel
	Routine  *vm.Routine
	Graph    *cfg.Graph
	Datapath *dp.Datapath
}

// CompileSource parses, analyzes and compiles the kernel function named
// fname from C source text.
func CompileSource(src, fname string, opt Options) (*Result, error) {
	file, err := cc.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := cc.Analyze(file)
	if err != nil {
		return nil, err
	}
	prog, err := hir.Build(info)
	if err != nil {
		return nil, err
	}
	f := prog.Func(fname)
	if f == nil {
		return nil, fmt.Errorf("core: no kernel function %q", fname)
	}
	return Compile(prog, f, opt)
}

// Compile runs the middle and back ends on an already-built HIR function.
func Compile(prog *hir.Program, f *hir.Func, opt Options) (*Result, error) {
	if opt.PeriodNs <= 0 {
		opt.PeriodNs = 5.0
	}
	res := &Result{Program: prog, Func: f}

	// Loop-level optimization (§2).
	hir.Fold(f)
	if opt.UnrollAll {
		hir.UnrollAll(f)
	}
	if opt.UnrollFactor > 1 {
		if err := unrollInnermost(f, opt.UnrollFactor); err != nil {
			return nil, err
		}
	}
	if opt.Optimize {
		hir.HoistInvariants(f)
		hir.Fold(f)
	}

	// Scalar replacement + feedback detection (§4.1, §4.2.1).
	k, err := hir.ExtractKernel(prog, f)
	if err != nil {
		return nil, err
	}
	res.Kernel = k

	// Circuit-level cleanup on the exported data-path function.
	if opt.Optimize {
		hir.CSE(k.DP)
		hir.CopyProp(k.DP)
		hir.DCE(k.DP)
		hir.Fold(k.DP)
	}

	// Back end: SUIFvm lowering, CFG, SSA (§4.2.1).
	rt, err := vm.Lower(k.DP)
	if err != nil {
		return nil, err
	}
	res.Routine = rt
	g, err := cfg.Build(rt)
	if err != nil {
		return nil, err
	}
	if err := ssa.Convert(g); err != nil {
		return nil, err
	}
	res.Graph = g

	// Data-path building, width inference, pipelining (§4.2.2-4.2.4).
	d, err := dp.Build(k, g)
	if err != nil {
		return nil, err
	}
	dp.InferWidths(d)
	// Latch placement against the Virtex-II technology model, so the
	// pipeline structure matches what the synthesis report assumes.
	if err := dp.Pipeline(d, dp.PipelineConfig{Period: opt.PeriodNs, Delay: synth.OpDelay(d, false)}); err != nil {
		return nil, err
	}
	res.Datapath = d
	return res, nil
}

// unrollInnermost partially unrolls the innermost loop of the (single)
// top-level loop nest.
func unrollInnermost(f *hir.Func, factor int64) error {
	for i, s := range f.Body {
		l, ok := s.(*hir.For)
		if !ok {
			continue
		}
		// Descend to the innermost loop of a perfect nest.
		parent := (*hir.For)(nil)
		cur := l
		for len(cur.Body) == 1 {
			if inner, ok := cur.Body[0].(*hir.For); ok {
				parent = cur
				cur = inner
				continue
			}
			break
		}
		u, err := hir.UnrollBy(cur, factor)
		if err != nil {
			return err
		}
		if parent == nil {
			f.Body[i] = u
		} else {
			parent.Body[0] = u
		}
		return nil
	}
	return fmt.Errorf("core: no loop to unroll in %s", f.Name)
}
