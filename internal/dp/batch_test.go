package dp_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
)

// batch_test.go pins RunN, the data path's one batch path, bit-identical
// to the serial Step/Drain loop it stands for: same outputs, same faults
// on the same cycle, same feedback state — across the Table 1 kernels
// (including feedback kernels), fuzzed kernels, random schedules of
// RunN calls with single Steps and Drains between them, and
// divisor-zero iterations.

// runNSerial is RunN on the reference: n Steps over the port-major
// inputs, then Latency() Drains, with iteration j's outputs (visible
// after clock j+Latency()) at out[o*n+j], or the error a Step or Drain
// raised.
func runNSerial(s *dp.Sim, inputs []int64, n, inW, outW int, out []int64) error {
	lat := s.Latency()
	row := make([]int64, inW)
	for c := 0; c < n+lat; c++ {
		var o []int64
		var err error
		if c < n {
			for i := range row {
				row[i] = inputs[i*n+c]
			}
			o, err = s.Step(row)
		} else {
			o, err = s.Drain()
		}
		if err != nil {
			return err
		}
		if j := c - lat; j >= 0 {
			for p := 0; p < outW; p++ {
				out[p*n+j] = o[p]
			}
		}
	}
	return nil
}

// Input modes for diffSchedule's fed iterations.
const (
	inAny     = iota // 12-bit signed values
	inZeros          // plus occasional zeros: valid zero divisors fault
	inNonzero        // strictly nonzero: divide-by-input kernels never fault
)

// schedShapes counts the RunN shapes diffSchedule drew, by the branch
// of the chunk loop each one takes, so a test can require that its
// schedules reached all of them.
type schedShapes struct {
	empty      int // RunN(in, 0): the flush alone
	serial     int // n+Latency() <= 2 clocks: the serial shortcut
	tailMerge  int // a chunk of 256 clocks plus a merged tail of 1 or 2
	multiChunk int // more than 258 clocks: split into chunks
}

func (sh *schedShapes) add(n, lat int) {
	c := n + lat
	if n == 0 {
		sh.empty++
	}
	if c <= 2 {
		sh.serial++
	}
	if c > 256 && c%256 >= 1 && c%256 <= 2 {
		sh.tailMerge++
	}
	if c > 258 {
		sh.multiChunk++
	}
}

// requireAll fails the test unless every shape occurred.
func (sh *schedShapes) requireAll(t *testing.T) {
	t.Helper()
	if sh.empty == 0 || sh.serial == 0 || sh.tailMerge == 0 || sh.multiChunk == 0 {
		t.Fatalf("the schedules missed a RunN shape: %+v", *sh)
	}
}

// diffSchedule drives one Sim through a random schedule of RunN calls
// and compares it with a second Sim stepped only by Step and Drain.
// Each RunN feeds n iterations, n drawn from 0..600, so RunN(in, 0),
// the serial shortcut (on a short pipeline), the tail merge and the
// 256-clock multi-chunk split all occur (counted in shapes). Between
// RunN calls, runs of single Steps and Drains go to both Sims, so
// batches also start with valid iterations and bubbles in flight.
// After every call the outputs, the errors (the same *FaultError
// operator on the same abort cycle), the cycle counts and the feedback
// latches must match; the schedule stops at the first fault or after
// about `clocks` clocks. Under inNonzero any fault fails.
func diffSchedule(t *testing.T, name string, d *dp.Datapath, rng *rand.Rand, mode, clocks int, shapes *schedShapes) {
	t.Helper()
	bat := dp.NewSim(d)
	ref := dp.NewSim(d)
	inW, outW, lat := len(d.Inputs), len(d.Outputs), d.Latency()
	const maxN = 600
	in := make([]int64, maxN*inW)
	want := make([]int64, maxN*outW)
	fill := func(vals []int64) {
		for j := range vals {
			switch {
			case mode == inNonzero:
				vals[j] = 1 + rng.Int63n(1<<11)
				if rng.Intn(2) == 0 {
					vals[j] = -vals[j]
				}
			case mode == inZeros && rng.Intn(6) == 0:
				vals[j] = 0
			default:
				vals[j] = rng.Int63n(1<<12) - 1<<11
			}
		}
	}
	// check compares the errors and the state after one call and
	// reports whether both faulted.
	check := func(call string, bErr, rErr error) bool {
		t.Helper()
		if mode == inNonzero && (bErr != nil || rErr != nil) {
			t.Fatalf("%s: %s: unexpected fault (RunN Sim %v, reference %v): bubbles or nonzero iterations trapped", name, call, bErr, rErr)
		}
		if (bErr != nil) != (rErr != nil) {
			t.Fatalf("%s: %s at cycle %d: RunN Sim %v, reference %v", name, call, ref.Cycle(), bErr, rErr)
		}
		if bErr != nil {
			assertSameFault(t, name, bErr, rErr)
		}
		assertSameState(t, name, d, bat, ref)
		return bErr != nil
	}
	for ref.Cycle() < clocks {
		if rng.Intn(3) == 0 {
			for k := 1 + rng.Intn(5); k > 0; k-- {
				call := "Drain"
				var bo, ro []int64
				var bErr, rErr error
				if rng.Intn(2) == 0 {
					call = "Step"
					fill(in[:inW])
					bo, bErr = bat.Step(in[:inW])
					ro, rErr = ref.Step(in[:inW])
				} else {
					bo, bErr = bat.Drain()
					ro, rErr = ref.Drain()
				}
				if check(call, bErr, rErr) {
					return
				}
				for o := range ro {
					if bo[o] != ro[o] {
						t.Fatalf("%s: %s at cycle %d port %d: %d, reference %d", name, call, ref.Cycle(), o, bo[o], ro[o])
					}
				}
			}
			continue
		}
		var n int
		switch rng.Intn(4) {
		case 0:
			n = rng.Intn(3)
		case 1:
			n = max(256-lat+1+rng.Intn(2), 0)
		default:
			n = rng.Intn(maxN + 1)
		}
		shapes.add(n, lat)
		fill(in[:n*inW])
		call := fmt.Sprintf("RunN(%d)", n)
		got, bErr := bat.RunN(in[:n*inW], n)
		rErr := runNSerial(ref, in[:n*inW], n, inW, outW, want[:n*outW])
		if check(call, bErr, rErr) {
			return
		}
		for j := 0; j < n*outW; j++ {
			if got[j] != want[j] {
				t.Fatalf("%s: %s ending at cycle %d: iteration %d port %d: %d, reference %d",
					name, call, ref.Cycle(), j%n, j/n, got[j], want[j])
			}
		}
	}
}

// assertSameFault requires two errors to be the same typed fault: the
// operator class and the abort cycle.
func assertSameFault(t *testing.T, name string, got, want error) {
	t.Helper()
	var fg, fw *dp.FaultError
	if errors.As(got, &fg) != errors.As(want, &fw) {
		t.Fatalf("%s: fault typing mismatch: %v, reference %v", name, got, want)
	}
	if fg != nil && (fg.Op != fw.Op || fg.Cycle != fw.Cycle) {
		t.Fatalf("%s: fault op=%s cycle=%d, reference op=%s cycle=%d", name, fg.Op, fg.Cycle, fw.Op, fw.Cycle)
	}
}

// assertSameState requires identical cycle counts and feedback latches
// (every latch an LPR or SNX of d names).
func assertSameState(t *testing.T, name string, d *dp.Datapath, got, ref *dp.Sim) {
	t.Helper()
	if got.Cycle() != ref.Cycle() {
		t.Fatalf("%s: cycle count %d, reference %d", name, got.Cycle(), ref.Cycle())
	}
	for _, op := range d.Ops {
		if op.Instr.State == nil {
			continue
		}
		v := op.Instr.State.Name
		bv, bok := got.FeedbackByName(v)
		rv, rok := ref.FeedbackByName(v)
		if !bok || !rok || bv != rv {
			t.Fatalf("%s: feedback %s: %d, reference %d", name, v, bv, rv)
		}
	}
}

// TestStepNDifferentialBenchKernels runs every Table 1 kernel —
// including the feedback kernels, whose lanes serialize through the
// latch cone — through random RunN schedules against the Step/Drain
// loop.
func TestStepNDifferentialBenchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	var shapes schedShapes
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		diffSchedule(t, k.Name, res.Datapath, rng, inAny, 3000, &shapes)
	}
	shapes.requireAll(t)
}

// TestStepNDifferentialFuzz extends the schedule differential to fuzzed
// kernels, rotating through division-by-input kernels with nonzero
// divisors (bubbles must mask the zero the drain pushes through the
// divider), division kernels with occasional zero divisors (a valid
// zero divisor must fault identically in both paths), and division-free
// kernels.
func TestStepNDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var shapes schedShapes
	const kernels = 24
	for ki := 0; ki < kernels; ki++ {
		group := ki % 3
		src, _ := generateKernelDiv(rng, 2+rng.Intn(3), 3+rng.Intn(4), 1+rng.Intn(2), group != 2)
		res, err := core.CompileSource(src, "k", core.Options{
			Optimize: ki%2 == 0,
			PeriodNs: []float64{2.5, 5, 1000}[ki%3],
		})
		if err != nil {
			t.Fatalf("kernel %d failed to compile: %v\n%s", ki, err, src)
		}
		// Group 0 feeds only nonzero magnitudes so valid iterations never
		// fault; group 1 feeds occasional zeros so they do.
		mode := inZeros
		if group == 0 {
			mode = inNonzero
		}
		diffSchedule(t, src, res.Datapath, rng, mode, 1500, &shapes)
	}
	shapes.requireAll(t)
}

// TestRunBatchMatchesRun pins RunBatch bit-identical to Run over the
// Table 1 kernels on random inputs.
func TestRunBatchMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		iters := make([][]int64, 300)
		for i := range iters {
			row := make([]int64, len(res.Datapath.Inputs))
			for j := range row {
				row[j] = rng.Int63n(1 << 12)
			}
			iters[i] = row
		}
		want, err := dp.NewSim(res.Datapath).Run(iters)
		if err != nil {
			t.Fatalf("%s: Run: %v", k.Name, err)
		}
		got, err := dp.NewSim(res.Datapath).RunBatch(iters)
		if err != nil {
			t.Fatalf("%s: RunBatch: %v", k.Name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: RunBatch returned %d rows, Run %d", k.Name, len(got), len(want))
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: iteration %d output %d: RunBatch %d, Run %d",
						k.Name, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestRunBatchFaultParity: a divide kernel with exactly one zero
// divisor must fault in the batch path and the serial Run on the same
// cycle index and leave identical cycle counts (the
// aborted cycle is discarded in both).
func TestRunBatchFaultParity(t *testing.T) {
	src := `
void k(int a, int b, int* q) {
	*q = a / b;
}
`
	res, err := core.CompileSource(src, "k", core.Options{Optimize: true, PeriodNs: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, zeroAt := range []int{0, 1, 37, 255, 256, 299} {
		iters := make([][]int64, 300)
		for i := range iters {
			iters[i] = []int64{int64(i + 1), int64(i%97 + 1)}
			if i == zeroAt {
				iters[i][1] = 0
			}
		}
		serial := dp.NewSim(res.Datapath)
		_, serr := serial.Run(iters)
		batch := dp.NewSim(res.Datapath)
		_, berr := batch.RunBatch(iters)
		if serr == nil || berr == nil {
			t.Fatalf("zeroAt=%d: expected both paths to fault (serial %v, batch %v)", zeroAt, serr, berr)
		}
		if serial.Cycle() != batch.Cycle() {
			t.Fatalf("zeroAt=%d: fault cycle mismatch: serial aborted at cycle %d, batch at %d",
				zeroAt, serial.Cycle(), batch.Cycle())
		}
	}
}

// TestRunNMatchesStepDrain pins RunN bit-identical to n Steps followed
// by Latency() Drains: outputs aligned by
// iteration, feedback latches, cycle count, and the fault and abort
// cycle of a planted zero divisor. Stream lengths straddle the serial
// shortcut and the chunk boundary, and three clocks are already in
// flight when RunN starts, so their outputs must not be returned. A
// 256-iteration RunN on a pipeline of at most two stages must fold its
// flush into the last chunk instead of stepping it serially: the lane
// scratch then spans all 256+Latency() clocks. A cone without a closed
// form runs every chunk on the serial step and grows no lane scratch.
func TestRunNMatchesStepDrain(t *testing.T) {
	for _, k := range []struct{ name, src string }{
		{"quotient", "void k(int a, int b, int* q) {\n\t*q = a / b;\n}\n"},
		{"closed-form", "int32 acc;\nvoid k(int16 a, int16 b, int32* q) {\n\tint i;\n\tacc = 0;\n\tfor (i = 0; i < 1024; i++) {\n\t\tacc = acc + a / b;\n\t\t*q = acc - a;\n\t}\n}\n"},
		{"serial-cone", "int32 acc;\nvoid k(int16 a, int16 b, int32* q) {\n\tint i;\n\tacc = 0;\n\tfor (i = 0; i < 1024; i++) {\n\t\tacc = acc * 3 + a / b;\n\t\t*q = acc + a;\n\t}\n}\n"},
	} {
		res, err := core.CompileSource(k.src, "k", core.Options{Optimize: true, PeriodNs: 2.5})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		d := res.Datapath
		inW, outW := len(d.Inputs), len(d.Outputs)
		div := -1
		for i, p := range d.Inputs {
			if p.Var.Name == "b" {
				div = i
			}
		}
		if div < 0 || outW == 0 {
			t.Fatalf("%s: %d outputs, divisor port %d", k.name, outW, div)
		}
		for _, n := range []int{1, 2, 3, 17, 255, 256, 257, 600} {
			for _, zeroAt := range []int{-1, 0, n / 2, n - 1} {
				name := fmt.Sprintf("%s/n=%d/zero@%d", k.name, n, zeroAt)
				rng := rand.New(rand.NewSource(int64(n + zeroAt)))
				in := make([]int64, n*inW)
				for j := range in {
					in[j] = 1 + rng.Int63n(1<<10)
				}
				if zeroAt >= 0 {
					in[div*n+zeroAt] = 0
				}
				sim := dp.NewSim(d)
				ref := dp.NewSim(d)
				row := make([]int64, inW)
				for c := 0; c < 3; c++ {
					for j := range row {
						row[j] = 1 + rng.Int63n(1<<10)
					}
					if _, err := sim.Step(row); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, err := ref.Step(row); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				want := make([]int64, n*outW)
				rErr := runNSerial(ref, in, n, inW, outW, want)
				got, err := sim.RunN(in, n)
				if (err != nil) != (rErr != nil) {
					t.Fatalf("%s: RunN %v, reference %v", name, err, rErr)
				}
				if rErr != nil {
					assertSameFault(t, name, err, rErr)
				} else {
					for j := range want {
						if got[j] != want[j] {
							t.Fatalf("%s: iteration %d port %d: RunN %d, reference %d", name, j%n, j/n, got[j], want[j])
						}
					}
				}
				assertSameState(t, name, d, sim, ref)
			}
		}
		sim := dp.NewSim(d)
		in := make([]int64, 256*inW)
		for j := range in {
			in[j] = int64(j%7 + 1)
		}
		if _, err := sim.RunN(in, 256); err != nil {
			t.Fatal(err)
		}
		switch lat := d.Latency(); {
		case k.name == "serial-cone":
			if got := dp.LaneScratch(sim); got != 0 {
				t.Fatalf("%s: lane scratch holds %d values after RunN(256), want 0: a cone without a closed form ran on lane chunks", k.name, got)
			}
		case lat >= 1 && lat <= 2:
			if got, want := dp.LaneScratch(sim), len(d.Ops)*(d.Stages+256+lat); got != want {
				t.Fatalf("%s: lane scratch holds %d values after RunN(256), want %d (nOps %d × (stages %d + 256 + latency %d)): the flush ran on its own",
					k.name, got, want, len(d.Ops), d.Stages, lat)
			}
		}
	}
}

// TestStepNZeroAllocs: the reference Step/Drain loop must not allocate
// in steady state, for both a feedback-free kernel and a feedback
// kernel.
func TestStepNZeroAllocs(t *testing.T) {
	for _, k := range []bench.Kernel{bench.DCT(), bench.MulAcc()} {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		sim := dp.NewSim(res.Datapath)
		row := make([]int64, len(res.Datapath.Inputs))
		for i := range row {
			row[i] = int64(i%251 + 1)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for c := 0; c < 64; c++ {
				if _, err := sim.Step(row); err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
			}
			for c := 0; c < 8; c++ {
				if _, err := sim.Drain(); err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: the Step/Drain loop allocates %.1f allocs/op, want 0", k.Name, allocs)
		}
	}
}

// TestRunAllocsBounded: Run must allocate only its two result buffers
// (the row headers and the flat backing), never per iteration.
func TestRunAllocsBounded(t *testing.T) {
	res, err := bench.DCT().Compile()
	if err != nil {
		t.Fatal(err)
	}
	sim := dp.NewSim(res.Datapath)
	iters := make([][]int64, 200)
	for i := range iters {
		row := make([]int64, len(res.Datapath.Inputs))
		for j := range row {
			row[j] = int64(i + j)
		}
		iters[i] = row
	}
	allocs := testing.AllocsPerRun(20, func() {
		sim.Reset()
		if _, err := sim.Run(iters); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Run allocates %.1f allocs/op, want at most 2 (result headers + flat backing)", allocs)
	}
}

// TestThreadedChunkStride pins the per-chunk lane stride (stages+n).
// A schedule of chunk sizes around the serial shortcut (1, 2, 3), an
// odd size (17) and the batchChunkMax boundary (255, 256, 257, and 600
// — a multi-chunk split), fed chunks and bubble chunks mixed and a
// final drain, runs over a closed-form cone and a cone without a closed
// form (which RunN runs on the serial step) that both accumulate a
// quotient: each fed chunk is one RunN, each bubble chunk that many
// Drains, and every chunk must match the Step/Drain reference bit for
// bit in outputs, latches and cycle count. A zero
// divisor planted in the last iteration of one fed chunk must abort on
// the reference's cycle with its fault. A 17-iteration RunN must leave
// at most nOps × (stages + 17 + Latency()) lane values of scratch.
func TestThreadedChunkStride(t *testing.T) {
	kernels := []struct{ name, body string }{
		{"closed-form", "acc = acc + a / b;"},
		{"serial-cone", "acc = acc * 3 + a / b;"},
	}
	for _, k := range kernels {
		src := "int32 acc;\nvoid k(int16 a, int16 b) {\n\tint i;\n\tacc = 0;\n\tfor (i = 0; i < 1024; i++) {\n\t\t" + k.body + "\n\t}\n}\n"
		res, err := core.CompileSource(src, "k", core.Options{Optimize: true, PeriodNs: 2.5})
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		d := res.Datapath
		if got := dp.NewSim(d).HasClosedFormCone(); got != (k.name == "closed-form") {
			t.Fatalf("%s: HasClosedFormCone = %v", k.name, got)
		}
		inW, outW := len(d.Inputs), len(d.Outputs)
		div := -1
		for i, p := range d.Inputs {
			if p.Var.Name == "b" {
				div = i
			}
		}
		if div < 0 {
			t.Fatalf("%s: no divisor input port", k.name)
		}
		type chunk struct {
			n     int
			valid bool
		}
		sched := []chunk{{1, true}, {2, false}, {3, true}, {17, true}, {255, false},
			{256, true}, {257, true}, {600, true}, {d.Latency(), false}}
		// faultChunk -1 runs the whole schedule; otherwise the last lane
		// of that valid chunk divides by zero.
		for _, faultChunk := range []int{-1, 0, 3, 5, 7} {
			name := fmt.Sprintf("%s/fault@%d", k.name, faultChunk)
			thr := dp.NewSim(d)
			ref := dp.NewSim(d)
			rng := rand.New(rand.NewSource(int64(faultChunk + 2)))
			faulted := false
			for ci, c := range sched {
				n, valid := c.n, c.valid
				in := make([]int64, n*inW)
				for j := range in {
					in[j] = 1 + rng.Int63n(1<<10)
				}
				if ci == faultChunk {
					in[div*n+n-1] = 0
				}
				rOut := make([]int64, n*outW)
				got := make([]int64, n*outW)
				var tErr, rErr error
				if valid {
					var o []int64
					if o, tErr = thr.RunN(in, n); tErr == nil {
						copy(got, o)
					}
					rErr = runNSerial(ref, in, n, inW, outW, rOut)
				} else {
					for c := 0; c < n && tErr == nil && rErr == nil; c++ {
						var to, ro []int64
						to, tErr = thr.Drain()
						ro, rErr = ref.Drain()
						for j := range ro {
							got[j*n+c], rOut[j*n+c] = to[j], ro[j]
						}
					}
				}
				if (tErr != nil) != (rErr != nil) {
					t.Fatalf("%s: chunk %d (n=%d valid=%v): RunN Sim %v, reference %v", name, ci, n, valid, tErr, rErr)
				}
				if rErr != nil {
					assertSameFault(t, name, tErr, rErr)
					faulted = true
					break
				}
				for j := range rOut {
					if got[j] != rOut[j] {
						t.Fatalf("%s: chunk %d (n=%d valid=%v) iteration %d port %d: RunN Sim %d, reference %d",
							name, ci, n, valid, j%n, j/n, got[j], rOut[j])
					}
				}
			}
			if faulted != (faultChunk >= 0) {
				t.Fatalf("%s: faulted = %v", name, faulted)
			}
			assertSameState(t, name, d, thr, ref)
		}

		const iters = 17
		lat := d.Latency()
		if lat > iters {
			t.Fatalf("%s: latency %d exceeds the %d-iteration stream", k.name, lat, iters)
		}
		sim := dp.NewSim(d)
		in := make([]int64, iters*inW)
		for j := range in {
			in[j] = int64(j%7 + 1)
		}
		if _, err := sim.RunN(in, iters); err != nil {
			t.Fatal(err)
		}
		if got, limit := dp.LaneScratch(sim), len(d.Ops)*(d.Stages+iters+lat); got > limit {
			t.Fatalf("%s: lane scratch holds %d values after a %d-iteration RunN, want <= %d (nOps %d × (stages %d + %d + latency %d))",
				k.name, got, iters, limit, len(d.Ops), d.Stages, iters, lat)
		}
	}
}
