package dp_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"roccc/internal/cc"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// fuzz_test.go generates random straight-line/branching C kernels and
// checks the whole compilation pipeline: the pipelined data-path
// simulation must match the C interpreter bit-for-bit on random inputs,
// across several pipeline targets. This is the strongest end-to-end
// property in the suite — it exercises the front end, SSA, mux/pipe
// construction, width inference and latch placement together.

type kernelGen struct {
	rng   *rand.Rand
	names []string
	decls []string
	stmts []string
	tmp   int
	// divisors, when non-empty, lets expr() emit / and % with one of
	// these names (kernel input params) as the divisor — the shape that
	// faults on zero and exercises the bubble/poison semantics.
	divisors []string
}

func (g *kernelGen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return g.names[g.rng.Intn(len(g.names))]
		case 1:
			return fmt.Sprintf("%d", g.rng.Intn(65)-32)
		default:
			return g.names[g.rng.Intn(len(g.names))]
		}
	}
	ops := []string{"+", "-", "*", "&", "|", "^"}
	op := ops[g.rng.Intn(len(ops))]
	a := g.expr(depth - 1)
	b := g.expr(depth - 1)
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("((%s) >> %d)", a, g.rng.Intn(5))
	case 1:
		if len(g.divisors) > 0 && g.rng.Intn(2) == 0 {
			d := g.divisors[g.rng.Intn(len(g.divisors))]
			return fmt.Sprintf("((%s) %s (%s))", a, []string{"/", "%"}[g.rng.Intn(2)], d)
		}
		return fmt.Sprintf("((%s) << %d)", a, g.rng.Intn(3))
	case 2:
		return fmt.Sprintf("((%s) %s (%s) ? (%s) : (%s))",
			a, []string{"<", ">", "<=", ">=", "==", "!="}[g.rng.Intn(6)], b,
			g.expr(depth-1), g.expr(depth-1))
	default:
		return fmt.Sprintf("((%s) %s (%s))", a, op, b)
	}
}

func (g *kernelGen) stmt(depth int) {
	g.tmp++
	name := fmt.Sprintf("t%d", g.tmp)
	if depth > 0 && g.rng.Intn(4) == 0 {
		cond := g.expr(1)
		g.decls = append(g.decls, fmt.Sprintf("\tint %s;", name))
		g.stmts = append(g.stmts, fmt.Sprintf("\tif (%s) { %s = %s; } else { %s = %s; }",
			cond, name, g.expr(depth-1), name, g.expr(depth-1)))
	} else {
		g.decls = append(g.decls, fmt.Sprintf("\tint %s;", name))
		g.stmts = append(g.stmts, fmt.Sprintf("\t%s = %s;", name, g.expr(depth)))
	}
	g.names = append(g.names, name)
}

// generate builds a random kernel with nIn inputs and nOut outputs.
func generateKernel(rng *rand.Rand, nIn, nStmts, nOut int) (string, int) {
	return generateKernelDiv(rng, nIn, nStmts, nOut, false)
}

// generateKernelDiv is generateKernel with optional division/modulo by
// raw input parameters, so random inputs (and bubbles' zero inputs) can
// hit divide-by-zero.
func generateKernelDiv(rng *rand.Rand, nIn, nStmts, nOut int, withDiv bool) (string, int) {
	g := &kernelGen{rng: rng}
	var params []string
	for i := 0; i < nIn; i++ {
		p := fmt.Sprintf("x%d", i)
		params = append(params, "int "+p)
		g.names = append(g.names, p)
		if withDiv {
			g.divisors = append(g.divisors, p)
		}
	}
	for i := 0; i < nOut; i++ {
		params = append(params, fmt.Sprintf("int* o%d", i))
	}
	for i := 0; i < nStmts; i++ {
		g.stmt(2 + rng.Intn(2))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "void k(%s) {\n", strings.Join(params, ", "))
	for _, d := range g.decls {
		b.WriteString(d + "\n")
	}
	for _, s := range g.stmts {
		b.WriteString(s + "\n")
	}
	for i := 0; i < nOut; i++ {
		fmt.Fprintf(&b, "\t*o%d = %s;\n", i, g.names[len(g.names)-1-i%len(g.names)])
	}
	b.WriteString("}\n")
	return b.String(), nOut
}

func TestFuzzPipelineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20240610))
	const kernels = 40
	for ki := 0; ki < kernels; ki++ {
		src, nOut := generateKernel(rng, 2+rng.Intn(3), 3+rng.Intn(5), 1+rng.Intn(2))
		period := []float64{2.5, 5, 1000}[ki%3]
		res, err := core.CompileSource(src, "k", core.Options{
			Optimize: ki%2 == 0,
			PeriodNs: period,
		})
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", ki, err, src)
		}
		// Reference interpreter.
		file, err := cc.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := cc.Analyze(file)
		if err != nil {
			t.Fatal(err)
		}
		ip := cc.NewInterp(info)

		sim := dp.NewSim(res.Datapath)
		nIn := len(res.Datapath.Inputs)
		const vectors = 24
		iters := make([][]int64, vectors)
		for vi := range iters {
			in := make([]int64, nIn)
			for j := range in {
				in[j] = rng.Int63n(1<<12) - 1<<11
			}
			iters[vi] = in
		}
		outs, err := sim.Run(iters)
		if err != nil {
			t.Fatalf("kernel %d sim: %v\n%s", ki, err, src)
		}
		for vi, in := range iters {
			_, want, err := ip.Call("k", in...)
			if err != nil {
				t.Fatalf("kernel %d interp: %v\n%s", ki, err, src)
			}
			for oi := 0; oi < nOut; oi++ {
				if outs[vi][oi] != want[oi] {
					t.Fatalf("kernel %d (period %.1f) vector %d out %d: hw=%d sw=%d\nsource:\n%s",
						ki, period, vi, oi, outs[vi][oi], want[oi], src)
				}
			}
		}
	}
}

// TestFuzzBubbleSchedules is the differential harness over random
// kernels AND random bubble schedules: the compiled Sim and the
// map-based RefSim are stepped in lockstep through a random mix of real
// iterations and Drain bubbles and must agree on every output, every
// error, and the final feedback state. Kernels rotate through three
// groups pinning the valid/poison semantics from both sides:
//
//   - divide-by-input kernels fed nonzero divisors: every bubble pushes
//     a zero divisor through the divider stage, so the whole schedule
//     (including the final flush) only completes if poisoned lanes mask
//     the fault — the seed faulted on the first drain;
//   - divide-by-input kernels fed occasional zero divisors: a *valid*
//     divisor-zero iteration must fault — in both cores, on the same
//     cycle (when it reaches the divider stage, possibly during a
//     Drain call) — and the aborted cycle must leave both cores in
//     identical states;
//   - division-free kernels with zero-heavy inputs: the plain
//     differential property under random bubbles.
func TestFuzzBubbleSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	const kernels = 30
	for ki := 0; ki < kernels; ki++ {
		group := ki % 3
		withDiv := group != 2
		src, _ := generateKernelDiv(rng, 2+rng.Intn(3), 3+rng.Intn(4), 1+rng.Intn(2), withDiv)
		period := []float64{2.5, 5, 1000}[ki%3]
		res, err := core.CompileSource(src, "k", core.Options{
			Optimize: ki%2 == 0,
			PeriodNs: period,
		})
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", ki, err, src)
		}
		fast := dp.NewSim(res.Datapath)
		ref := dp.NewRefSim(res.Datapath)
		in := make([]int64, len(res.Datapath.Inputs))
		zeroOK := group != 0
		faulted := false
		for cycle := 0; cycle < 160 && !faulted; cycle++ {
			var (
				fo, ro     []int64
				ferr, rerr error
				what       string
			)
			if rng.Intn(3) == 0 {
				what = "drain"
				fo, ferr = fast.Drain()
				ro, rerr = ref.Drain()
				if !zeroOK && (ferr != nil || rerr != nil) {
					// No valid iteration ever divides by zero in this
					// group, so a fault here means a bubble trapped.
					t.Fatalf("kernel %d cycle %d: bubble faulted: fast %v, ref %v\n%s",
						ki, cycle, ferr, rerr, src)
				}
			} else {
				what = "step"
				for j := range in {
					// In the zero-divisor group ~1 in 6 inputs is zero, so
					// divisor-zero iterations occur on valid cycles too.
					if zeroOK && rng.Intn(6) == 0 {
						in[j] = 0
					} else {
						in[j] = 1 + rng.Int63n(1<<11)
						if rng.Intn(2) == 0 {
							in[j] = -in[j]
						}
					}
				}
				fo, ferr = fast.Step(in)
				ro, rerr = ref.Step(in)
			}
			if (ferr != nil) != (rerr != nil) {
				t.Fatalf("kernel %d cycle %d (%s): error mismatch: fast %v, ref %v\n%s",
					ki, cycle, what, ferr, rerr, src)
			}
			if ferr != nil {
				// Both cores aborted the cycle identically; the faulting
				// iteration stays in flight, so stop the schedule here
				// and compare the (discarded-cycle) states below.
				faulted = true
				continue
			}
			for i := range ro {
				if fo[i] != ro[i] {
					t.Fatalf("kernel %d cycle %d (%s): output %d: fast %d != ref %d\n%s",
						ki, cycle, what, i, fo[i], ro[i], src)
				}
			}
		}
		if !faulted {
			// Flush the pipeline. In the zero-divisor group a valid
			// iteration admitted near the end of the schedule may still
			// reach the divider stage here — a correct fault, which must
			// occur in both cores on the same drain; in the other groups
			// no valid iteration can fault, so any flush error means a
			// bubble trapped.
			for i := 0; i <= res.Datapath.Stages+1; i++ {
				fo, ferr := fast.Drain()
				ro, rerr := ref.Drain()
				if (ferr != nil) != (rerr != nil) {
					t.Fatalf("kernel %d flush %d: error mismatch: fast %v, ref %v\n%s",
						ki, i, ferr, rerr, src)
				}
				if ferr != nil {
					if !zeroOK {
						t.Fatalf("kernel %d flush %d: bubble faulted: fast %v, ref %v\n%s",
							ki, i, ferr, rerr, src)
					}
					// Both cores hold the faulting iteration in flight;
					// stop flushing and compare the wedged states below.
					break
				}
				for j := range ro {
					if fo[j] != ro[j] {
						t.Fatalf("kernel %d flush %d output %d: fast %d != ref %d\n%s",
							ki, i, j, fo[j], ro[j], src)
					}
				}
			}
		}
		for v, rv := range ref.State {
			if fv, ok := fast.FeedbackByName(v.Name); !ok || fv != rv {
				t.Fatalf("kernel %d: feedback %s: fast %d != ref %d\n%s", ki, v.Name, fv, rv, src)
			}
		}
		if fast.Cycle() != ref.Cycle() {
			t.Fatalf("kernel %d: cycle count: fast %d != ref %d", ki, fast.Cycle(), ref.Cycle())
		}
	}
}

// TestFuzzPeriodInvariance compiles the same random kernels at different
// pipeline targets: the functional results must be identical even though
// stage structure differs.
func TestFuzzPeriodInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for ki := 0; ki < 10; ki++ {
		src, _ := generateKernel(rng, 3, 5, 1)
		var ref [][]int64
		in := make([][]int64, 8)
		for vi := range in {
			vec := make([]int64, 3)
			for j := range vec {
				vec[j] = rng.Int63n(4096) - 2048
			}
			in[vi] = vec
		}
		for _, period := range []float64{2, 3.7, 8, 500} {
			res, err := core.CompileSource(src, "k", core.Options{Optimize: true, PeriodNs: period})
			if err != nil {
				t.Fatal(err)
			}
			// The fuzz inputs are 3-wide; the datapath may have fewer
			// inputs if DCE removed unused params.
			vecs := make([][]int64, len(in))
			for vi := range in {
				vecs[vi] = in[vi][:len(res.Datapath.Inputs)]
			}
			outs, err := dp.NewSim(res.Datapath).Run(vecs)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = outs
				continue
			}
			for vi := range outs {
				for oi := range outs[vi] {
					if outs[vi][oi] != ref[vi][oi] {
						t.Fatalf("kernel %d: period %.1f changed results\n%s", ki, period, src)
					}
				}
			}
		}
	}
}
