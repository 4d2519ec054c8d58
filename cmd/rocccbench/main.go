// Command rocccbench regenerates the paper's evaluation: Table 1, the
// §5 DCT throughput comparison, the §2 area-estimation claim, the
// speedups over an embedded CPU, the ablations and the structural figures
// (Fig. 3, 4, 6, 7).
//
// -sweep adds the four differential sweeps: one harness (internal/exp)
// over one kernel matrix — the two FIRs, the Table 1 kernels, the fault
// divider and the ci/corpus kernels — on four paths: a SystemPool as
// wide as GOMAXPROCS, the default System, one single-slot TCP
// connection to a server, and a pipelined connection through a router
// into three worker shards. Each runs 64 streams per kernel, checks
// every stream bit-identical to the serial reference, prints the same
// table and exits 1 on any divergence.
//
// Usage:
//
//	rocccbench [-sweep]
package main

import (
	"flag"
	"fmt"
	"os"

	"roccc/internal/bench"
	"roccc/internal/exp"
)

// The sweeps' shape: input streams per kernel on every path, and the
// worker shards of the fleet sweep. The pool sweep runs GOMAXPROCS
// workers.
const (
	sweepStreams = 64
	fleetShards  = 3
)

func main() {
	sweep := flag.Bool("sweep", false, "also run the four differential sweeps (pool, system, served, fleet) against the serial reference")
	flag.Parse()

	rows, err := exp.Table1()
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.FormatTable1(rows))

	t, err := exp.DCTThroughput()
	if err != nil {
		fatal(err)
	}
	fmt.Println("== §5 DCT throughput ==")
	fmt.Printf("Xilinx IP: %.0f MHz x %.0f output/cycle = %.0f Msamples/s\n",
		t.IPClockMHz, t.IPOutsPerCycle, t.IPMsps)
	fmt.Printf("ROCCC:     %.0f MHz x %.0f output/cycle = %.0f Msamples/s\n",
		t.RocccClockMHz, t.RocccOutsPerCycle, t.RocccMsps)
	fmt.Printf("overall throughput ratio: %.2fx (paper: higher despite 0.735x clock)\n\n", t.Speedup)

	if *sweep {
		specs, err := exp.SweepSpecs(bench.CorpusDir)
		if err != nil {
			fatal(err)
		}
		for _, run := range []func() (*exp.SweepTable, error){
			func() (*exp.SweepTable, error) { return exp.PoolSweep(specs, sweepStreams, 0) },
			func() (*exp.SweepTable, error) { return exp.SysBatchSweep(specs, sweepStreams) },
			func() (*exp.SweepTable, error) { return exp.ServeSweep(specs, sweepStreams) },
			func() (*exp.SweepTable, error) { return exp.FleetSweep(specs, sweepStreams, fleetShards) },
		} {
			tab, err := run()
			if err != nil {
				fatal(err)
			}
			fmt.Println(tab)
		}
	}

	est, err := exp.AreaEstimation()
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.FormatEstimation(est))
	fmt.Println()

	sp, err := exp.Speedups()
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.FormatSpeedups(sp))
	fmt.Println()

	ab, err := exp.FormatAblations()
	if err != nil {
		fatal(err)
	}
	fmt.Println(ab)

	f3, err := exp.Fig3()
	if err != nil {
		fatal(err)
	}
	fmt.Println(f3.Text)
	f4, err := exp.Fig4()
	if err != nil {
		fatal(err)
	}
	fmt.Println(f4.Text)
	f6, _, err := exp.Fig6()
	if err != nil {
		fatal(err)
	}
	fmt.Println(f6.Text)
	f7, _, err := exp.Fig7()
	if err != nil {
		fatal(err)
	}
	fmt.Println(f7.Text)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccbench:", err)
	os.Exit(1)
}
