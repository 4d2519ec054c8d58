package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
)

// sysbatch.go measures the default streak-batched System.Run (netlist
// sysbatch.go, threaded backend) against the serial per-cycle interp
// reference on the same streams, kernel by kernel. Every streak-batched
// stream is verified bit-identical to its serial run — outputs,
// feedback latches and cycle counts — so the sweep doubles as an
// end-to-end correctness harness for the streak predictor and the
// threaded backend, and the table it prints is the reproducible form of
// the speedup claim.

// SysBatchRow is one kernel's serial-vs-streak measurement.
type SysBatchRow struct {
	Kernel  string
	Streams int
	// Iters is the loop-nest iteration count of one stream.
	Iters int
	// Cycles is the total clock count across streams (identical on both
	// paths by construction).
	Cycles int64
	// BatchedPct is the fraction of cycles the streak path dispatched
	// through StepN/DrainN chunks (the rest fell back to per-cycle
	// stepping).
	BatchedPct float64
	// Serial and Streak are per-iteration costs (total wall clock over
	// total data-path iterations executed): the serial interp reference
	// and the default streak-batched system.
	Serial, Streak time.Duration
	Speedup        float64
	// Skipped is non-empty for kernels that cannot stream.
	Skipped string
}

// LongFIRSource is a long-stream FIR: 4096 iterations, so the steady
// state (256-cycle StepN chunks) dominates fill and drain — the
// serve-path shape, where one request streams a long input. It is the
// workload of both this sweep's fir_4096 row and the CI-gated
// BenchmarkSysRun/fir4k pair, shared so the two stay comparable.
const LongFIRSource = `
int A[4100];
int C[4096];
void fir() {
	int i;
	for (i = 0; i < 4096; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

// SysBatchSweep runs `streams` random streams per kernel through a
// serial and a streak-batched System and returns the verified
// measurement rows: the Fig. 3 FIR (the Fig. 2 benchmark workload), a
// 4096-iteration FIR (steady-state shape), and every streamable Table 1
// row including the mul_acc feedback kernel.
func SysBatchSweep(streams int) ([]SysBatchRow, error) {
	if streams <= 0 {
		streams = 8
	}
	type cand struct {
		name string
		res  *core.Result
		cfg  netlist.Config
		err  error
	}
	var cands []cand
	add := func(name, src, fn string, opt core.Options, cfg netlist.Config) {
		res, err := core.CompileSource(src, fn, opt)
		cands = append(cands, cand{name: name, res: res, cfg: cfg, err: err})
	}
	add("fir_fig3", Fig3Source, "fir", core.DefaultOptions(), netlist.Config{BusElems: 1})
	add("fir_4096", LongFIRSource, "fir", core.DefaultOptions(), netlist.Config{BusElems: 1})
	for _, k := range bench.All() {
		res, err := k.Compile()
		cands = append(cands, cand{
			name: k.Name, res: res,
			cfg: netlist.Config{BusElems: k.BusElems, Scalars: k.Scalars},
			err: err,
		})
	}

	var rows []SysBatchRow
	for _, c := range cands {
		if c.err != nil {
			return nil, fmt.Errorf("exp: sysbatch %s: %w", c.name, c.err)
		}
		row, err := sysBatchKernel(c.name, c.res, c.cfg, streams)
		if err != nil {
			return nil, fmt.Errorf("exp: sysbatch %s: %w", c.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sysBatchKernel measures one kernel, verifying the default streak path
// bit-identical to the serial interpreter reference on every stream.
func sysBatchKernel(name string, res *core.Result, cfg netlist.Config, streams int) (SysBatchRow, error) {
	row := SysBatchRow{Kernel: name, Streams: streams}
	scfg := cfg
	scfg.Serial = true
	scfg.Backend = dp.BackendInterp
	serial, err := netlist.NewSystem(res.Kernel, res.Datapath, scfg)
	if err != nil {
		row.Skipped = err.Error()
		if strings.Contains(row.Skipped, "no loop nest") {
			row.Skipped = "combinational (no loop nest)"
		}
		return row, nil
	}
	streak, err := netlist.NewSystem(res.Kernel, res.Datapath, cfg)
	if err != nil {
		return row, err
	}
	row.Iters = int(res.Kernel.Nest.TotalIterations())

	inputs := make([]map[string][]int64, streams)
	for i := range inputs {
		rng := rand.New(rand.NewSource(int64(i)*7919 + 3))
		in := map[string][]int64{}
		for _, w := range res.Kernel.Reads {
			vals := make([]int64, w.Arr.Len())
			for j := range vals {
				vals[j] = rng.Int63n(255) - 128
			}
			in[w.Arr.Name] = vals
		}
		inputs[i] = in
	}

	type result struct {
		outputs   map[string][]int64
		feedbacks map[string]int64
		cycles    int
	}
	runOne := func(sys *netlist.System, in map[string][]int64) (result, error) {
		var r result
		sys.Reset()
		for arr, vals := range in {
			if err := sys.LoadInput(arr, vals); err != nil {
				return r, err
			}
		}
		sim, err := sys.Run()
		if err != nil {
			return r, err
		}
		r.cycles = sys.Cycles()
		r.outputs = map[string][]int64{}
		for _, w := range res.Kernel.Writes {
			out, err := sys.Output(w.Arr.Name)
			if err != nil {
				return r, err
			}
			r.outputs[w.Arr.Name] = out
		}
		r.feedbacks = map[string]int64{}
		for _, fb := range res.Datapath.Feedbacks {
			if v, ok := sim.FeedbackByName(fb.State.Name); ok {
				r.feedbacks[fb.State.Name] = v
			}
		}
		return r, nil
	}

	// Correctness pass (also the warm-up): the streak system ≡ the
	// serial interpreter per stream.
	for i, in := range inputs {
		sr, err := runOne(serial, in)
		if err != nil {
			return row, fmt.Errorf("serial stream %d: %w", i, err)
		}
		br, err := runOne(streak, in)
		if err != nil {
			return row, fmt.Errorf("streak stream %d: %w", i, err)
		}
		if br.cycles != sr.cycles {
			return row, fmt.Errorf("stream %d: %d cycles streak, %d serial", i, br.cycles, sr.cycles)
		}
		for arr, want := range sr.outputs {
			got := br.outputs[arr]
			for j := range want {
				if got[j] != want[j] {
					return row, fmt.Errorf("stream %d: %s[%d] = %d streak, %d serial", i, arr, j, got[j], want[j])
				}
			}
		}
		for fb, want := range sr.feedbacks {
			if got := br.feedbacks[fb]; got != want {
				return row, fmt.Errorf("stream %d: feedback %s = %d streak, %d serial", i, fb, got, want)
			}
		}
		row.Cycles += int64(sr.cycles)
		row.BatchedPct += float64(streak.BatchedCycles())
	}
	row.BatchedPct = 100 * row.BatchedPct / float64(row.Cycles)

	// Timing passes: whole sweep per path, best of three.
	time1 := func(sys *netlist.System) (time.Duration, error) {
		best := time.Duration(1<<62 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			for _, in := range inputs {
				if _, err := runOne(sys, in); err != nil {
					return 0, err
				}
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best, nil
	}
	ser, err := time1(serial)
	if err != nil {
		return row, err
	}
	str, err := time1(streak)
	if err != nil {
		return row, err
	}
	iters := int64(row.Iters) * int64(streams)
	row.Serial = ser / time.Duration(iters)
	row.Streak = str / time.Duration(iters)
	if str > 0 {
		row.Speedup = float64(ser) / float64(str)
	}
	return row, nil
}

// FormatSysBatch renders the serial-vs-streak table.
func FormatSysBatch(rows []SysBatchRow) string {
	var b strings.Builder
	b.WriteString("System cycle-loop batching: serial interp Step dispatch vs streak-batched StepN\n")
	fmt.Fprintf(&b, "%-12s %8s %7s %9s %9s %11s %11s %9s\n",
		"kernel", "streams", "iters", "cycles", "batched", "serial/it", "streak/it", "speedup")
	for _, r := range rows {
		if r.Skipped != "" {
			fmt.Fprintf(&b, "%-12s %8s %7s %9s %9s %11s %11s %9s  (%s)\n",
				r.Kernel, "-", "-", "-", "-", "-", "-", "-", r.Skipped)
			continue
		}
		fmt.Fprintf(&b, "%-12s %8d %7d %9d %8.1f%% %11s %11s %8.2fx\n",
			r.Kernel, r.Streams, r.Iters, r.Cycles, r.BatchedPct,
			r.Serial.Round(time.Nanosecond), r.Streak.Round(time.Nanosecond), r.Speedup)
	}
	return b.String()
}
