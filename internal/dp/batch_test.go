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

// batch_test.go pins the threaded backend's lane-parallel batch path
// (StepN/DrainN/RunN/RunBatch) bit-identical to the serial interp core: same
// outputs on every cycle, same faults on the same cycle, same feedback
// state — across the Table 1 kernels (including feedback kernels),
// fuzzed kernels, random bubble schedules, and divisor-zero iterations.

// stepSerial advances the serial reference by n valid cycles with the
// given port-major inputs (inputs[i*n+c] is port i on clock c), one
// Step per clock, returning the outputs in StepN's port-major layout
// (out[o*n+c] is port o after clock c), or the error Step raised, with
// prior was-successful clocks discarded like StepN discards them.
func stepSerial(s *dp.Sim, inputs []int64, n, inW, outW int, out []int64) error {
	row := make([]int64, inW)
	for c := 0; c < n; c++ {
		for i := range row {
			row[i] = inputs[i*n+c]
		}
		o, err := s.Step(row)
		if err != nil {
			return err
		}
		for j := 0; j < outW; j++ {
			out[j*n+c] = o[j]
		}
	}
	return nil
}

// drainSerial is stepSerial for n bubble clocks: one Drain per clock,
// outputs in DrainN's port-major layout.
func drainSerial(s *dp.Sim, n, outW int, out []int64) error {
	for c := 0; c < n; c++ {
		o, err := s.Drain()
		if err != nil {
			return err
		}
		for j := 0; j < outW; j++ {
			out[j*n+c] = o[j]
		}
	}
	return nil
}

// Input modes for diffSchedule's valid runs.
const (
	inAny     = iota // 12-bit signed values
	inZeros          // plus occasional zeros: valid zero divisors fault
	inNonzero        // strictly nonzero: divide-by-input kernels never fault
)

// diffSchedule drives a threaded sim's StepN/DrainN and the interp
// reference's serial Step/Drain through the same random schedule of
// valid runs and bubble runs (chunk sizes 1..40, so the serial
// shortcut, a single lane chunk and multi-chunk splits are all
// exercised) and requires identical outputs on every cycle, identical
// errors (the same *FaultError operator on the same abort cycle),
// cycle counts and feedback state. Under inNonzero any fault fails.
func diffSchedule(t *testing.T, name string, d *dp.Datapath, rng *rand.Rand, mode, cycles int) {
	t.Helper()
	bat := dp.NewSim(d)
	ref := dp.NewSimWith(d, dp.BackendInterp)
	inW := len(d.Inputs)
	outW := len(d.Outputs)
	maxChunk := 40
	in := make([]int64, maxChunk*inW)
	bOut := make([]int64, maxChunk*outW)
	rOut := make([]int64, maxChunk*outW)
	for done := 0; done < cycles; {
		n := 1 + rng.Intn(maxChunk)
		valid := rng.Intn(3) != 0
		var bErr, rErr error
		if valid {
			for j := 0; j < n*inW; j++ {
				switch {
				case mode == inNonzero:
					in[j] = 1 + rng.Int63n(1<<11)
					if rng.Intn(2) == 0 {
						in[j] = -in[j]
					}
				case mode == inZeros && rng.Intn(6) == 0:
					in[j] = 0
				default:
					in[j] = rng.Int63n(1<<12) - 1<<11
				}
			}
			var o []int64
			o, bErr = bat.StepN(in[:n*inW], n)
			if bErr == nil {
				copy(bOut, o)
			}
			rErr = stepSerial(ref, in, n, inW, outW, rOut)
		} else {
			var o []int64
			o, bErr = bat.DrainN(n)
			if bErr == nil {
				copy(bOut, o)
			}
			rErr = drainSerial(ref, n, outW, rOut)
		}
		if mode == inNonzero && (bErr != nil || rErr != nil) {
			t.Fatalf("%s: unexpected fault (batch %v, serial %v): bubbles or nonzero iterations trapped", name, bErr, rErr)
		}
		if (bErr != nil) != (rErr != nil) {
			t.Fatalf("%s: error mismatch after %d cycles (n=%d valid=%v): batch %v, serial %v",
				name, done, n, valid, bErr, rErr)
		}
		if bErr != nil {
			// Both faulted: the abort must land on the same cycle with the
			// same typed fault; stop the schedule here.
			assertSameFault(t, name, bErr, rErr)
			break
		}
		for j := 0; j < n*outW; j++ {
			if bOut[j] != rOut[j] {
				t.Fatalf("%s: output mismatch at chunk cycle %d port %d (batch cycles %d..%d, valid=%v): batch %d, serial %d",
					name, j%n, j/n, done, done+n-1, valid, bOut[j], rOut[j])
			}
		}
		done += n
	}
	assertSameState(t, name, d, bat, ref)
}

// assertSameFault requires two errors to be the same typed fault: the
// operator class and the abort cycle.
func assertSameFault(t *testing.T, name string, got, want error) {
	t.Helper()
	var fg, fw *dp.FaultError
	if errors.As(got, &fg) != errors.As(want, &fw) {
		t.Fatalf("%s: fault typing mismatch: %v, interp %v", name, got, want)
	}
	if fg != nil && (fg.Op != fw.Op || fg.Cycle != fw.Cycle) {
		t.Fatalf("%s: fault op=%s cycle=%d, interp op=%s cycle=%d", name, fg.Op, fg.Cycle, fw.Op, fw.Cycle)
	}
}

// assertSameState requires identical cycle counts and feedback latches
// (every latch an LPR or SNX of d names).
func assertSameState(t *testing.T, name string, d *dp.Datapath, got, ref *dp.Sim) {
	t.Helper()
	if got.Cycle() != ref.Cycle() {
		t.Fatalf("%s: cycle count %d, interp %d", name, got.Cycle(), ref.Cycle())
	}
	for _, op := range d.Ops {
		if op.Instr.State == nil {
			continue
		}
		v := op.Instr.State.Name
		bv, bok := got.FeedbackByName(v)
		rv, rok := ref.FeedbackByName(v)
		if !bok || !rok || bv != rv {
			t.Fatalf("%s: feedback %s: %d, interp %d", name, v, bv, rv)
		}
	}
}

// TestStepNDifferentialBenchKernels runs every Table 1 kernel —
// including the feedback kernels, whose lanes serialize through the
// latch cone — through random batched schedules against the serial
// core.
func TestStepNDifferentialBenchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(20260726))
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		diffSchedule(t, k.Name, res.Datapath, rng, inAny, 700)
	}
}

// TestStepNDifferentialFuzz extends the schedule differential to fuzzed
// kernels, rotating through division-by-input kernels with nonzero
// divisors (bubbles must mask the zero the drain pushes through the
// divider), division kernels with occasional zero divisors (a valid
// zero divisor must fault identically in both paths), and division-free
// kernels.
func TestStepNDifferentialFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
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
		diffSchedule(t, src, res.Datapath, rng, mode, 400)
	}
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
		want, err := dp.NewSimWith(res.Datapath, dp.BackendInterp).Run(iters)
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
// divisor must fault in the threaded batch path and the serial interp
// Run on the same cycle index and leave identical cycle counts (the
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
		serial := dp.NewSimWith(res.Datapath, dp.BackendInterp)
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

// runNSerial is RunN on the serial reference: n Steps over the
// port-major inputs, then Latency() Drains, with iteration j's outputs
// (visible after clock j+Latency()) at out[o*n+j].
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

// TestRunNMatchesStepDrain pins RunN bit-identical to n Steps followed
// by Latency() Drains on the serial interp core: outputs aligned by
// iteration, feedback latches, cycle count, and the fault and abort
// cycle of a planted zero divisor. Stream lengths straddle the serial
// shortcut and the chunk boundary, and three clocks are already in
// flight when RunN starts, so their outputs must not be returned. A
// 256-iteration RunN on a pipeline of at most two stages must fold its
// flush into the last chunk instead of stepping it serially: the lane
// scratch then spans all 256+Latency() clocks.
func TestRunNMatchesStepDrain(t *testing.T) {
	for _, k := range []struct{ name, src string }{
		{"quotient", "void k(int a, int b, int* q) {\n\t*q = a / b;\n}\n"},
		{"closed-form", "int32 acc;\nvoid k(int16 a, int16 b, int32* q) {\n\tint i;\n\tacc = 0;\n\tfor (i = 0; i < 1024; i++) {\n\t\tacc = acc + a / b;\n\t\t*q = acc - a;\n\t}\n}\n"},
		{"lane-serial", "int32 acc;\nvoid k(int16 a, int16 b, int32* q) {\n\tint i;\n\tacc = 0;\n\tfor (i = 0; i < 1024; i++) {\n\t\tacc = acc * 3 + a / b;\n\t\t*q = acc + a;\n\t}\n}\n"},
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
		for _, backend := range dp.Backends() {
			for _, n := range []int{1, 2, 3, 17, 255, 256, 257, 600} {
				for _, zeroAt := range []int{-1, 0, n / 2, n - 1} {
					name := fmt.Sprintf("%s[%v]/n=%d/zero@%d", k.name, backend, n, zeroAt)
					rng := rand.New(rand.NewSource(int64(n + zeroAt)))
					in := make([]int64, n*inW)
					for j := range in {
						in[j] = 1 + rng.Int63n(1<<10)
					}
					if zeroAt >= 0 {
						in[div*n+zeroAt] = 0
					}
					pre := make([]int64, 3*inW)
					for j := range pre {
						pre[j] = 1 + rng.Int63n(1<<10)
					}
					sim := dp.NewSimWith(d, backend)
					ref := dp.NewSimWith(d, dp.BackendInterp)
					if _, err := sim.StepN(pre, 3); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := stepSerial(ref, pre, 3, inW, outW, make([]int64, 3*outW)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := make([]int64, n*outW)
					rErr := runNSerial(ref, in, n, inW, outW, want)
					got, err := sim.RunN(in, n)
					if (err != nil) != (rErr != nil) {
						t.Fatalf("%s: RunN %v, interp %v", name, err, rErr)
					}
					if rErr != nil {
						assertSameFault(t, name, err, rErr)
					} else {
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("%s: iteration %d port %d: RunN %d, interp %d", name, j%n, j/n, got[j], want[j])
							}
						}
					}
					assertSameState(t, name, d, sim, ref)
				}
			}
		}
		if lat := d.Latency(); lat >= 1 && lat <= 2 {
			sim := dp.NewSim(d)
			in := make([]int64, 256*inW)
			for j := range in {
				in[j] = int64(j%7 + 1)
			}
			if _, err := sim.RunN(in, 256); err != nil {
				t.Fatal(err)
			}
			if got, want := dp.LaneScratch(sim), len(d.Ops)*(d.Stages+256+lat); got != want {
				t.Fatalf("%s: lane scratch holds %d values after RunN(256), want %d (nOps %d × (stages %d + 256 + latency %d)): the flush ran on its own",
					k.name, got, want, len(d.Ops), d.Stages, lat)
			}
		}
	}
}

// TestStepNZeroAllocs: the interp reference's StepN/DrainN (the serial
// loop) must not allocate in steady state, for both a feedback-free
// kernel and a feedback kernel.
func TestStepNZeroAllocs(t *testing.T) {
	for _, k := range []bench.Kernel{bench.DCT(), bench.MulAcc()} {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		sim := dp.NewSimWith(res.Datapath, dp.BackendInterp)
		const n = 64
		in := make([]int64, n*len(res.Datapath.Inputs))
		for i := range in {
			in[i] = int64(i%251 + 1)
		}
		// Warm-up grows the output buffer once.
		if _, err := sim.StepN(in, n); err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := sim.StepN(in, n); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if _, err := sim.DrainN(8); err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: StepN/DrainN steady state allocates %.1f allocs/op, want 0", k.Name, allocs)
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
// Threaded StepN/DrainN run chunk sizes around the serial shortcut (1,
// 2, 3), an odd size (17) and the batchChunkMax boundary (255, 256,
// 257, and 600 — a multi-chunk split), valid and bubble chunks mixed
// and a final drain, over a closed-form cone and a lane-serial cone
// that both accumulate a quotient; every schedule must match serial
// interp Step bit for bit in outputs, latches and cycle count. A zero divisor planted in the
// last lane of one chunk must abort on the reference's cycle with its
// fault. A 17-iteration stream must leave at most nOps × (stages + 17)
// lane values of scratch.
func TestThreadedChunkStride(t *testing.T) {
	kernels := []struct{ name, body string }{
		{"closed-form", "acc = acc + a / b;"},
		{"lane-serial", "acc = acc * 3 + a / b;"},
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
			thr := dp.NewSimWith(d, dp.BackendThreaded)
			ref := dp.NewSimWith(d, dp.BackendInterp)
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
				var got []int64
				var tErr, rErr error
				if valid {
					got, tErr = thr.StepN(in, n)
					rErr = stepSerial(ref, in, n, inW, outW, rOut)
				} else {
					got, tErr = thr.DrainN(n)
					rErr = drainSerial(ref, n, outW, rOut)
				}
				if (tErr != nil) != (rErr != nil) {
					t.Fatalf("%s: chunk %d (n=%d valid=%v): threaded %v, interp %v", name, ci, n, valid, tErr, rErr)
				}
				if rErr != nil {
					assertSameFault(t, name, tErr, rErr)
					faulted = true
					break
				}
				for j := range rOut {
					if got[j] != rOut[j] {
						t.Fatalf("%s: chunk %d (n=%d valid=%v) clock %d port %d: threaded %d, interp %d",
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
		if d.Latency() > iters {
			t.Fatalf("%s: latency %d exceeds the %d-iteration stream", k.name, d.Latency(), iters)
		}
		sim := dp.NewSimWith(d, dp.BackendThreaded)
		in := make([]int64, iters*inW)
		for j := range in {
			in[j] = int64(j%7 + 1)
		}
		if _, err := sim.StepN(in, iters); err != nil {
			t.Fatal(err)
		}
		if _, err := sim.DrainN(d.Latency()); err != nil {
			t.Fatal(err)
		}
		if got, limit := dp.LaneScratch(sim), len(d.Ops)*(d.Stages+iters); got > limit {
			t.Fatalf("%s: lane scratch holds %d values after a %d-iteration stream, want <= %d (nOps %d × (stages %d + %d))",
				k.name, got, iters, limit, len(d.Ops), d.Stages, iters)
		}
	}
}
