// Command rocccbench regenerates the paper's evaluation: Table 1, the
// §5 DCT throughput comparison, the §2 area-estimation claim, and the
// structural figures (Fig. 3, 4, 6, 7).
//
// The four sweep flags run one differential harness (internal/exp) over
// one kernel matrix — the two FIRs, the Table 1 kernels, the fault
// divider and the -corpus kernels — on four paths: -sysbatch the
// default System, -sweep a SystemPool across -workers, -serve one TCP
// connection to rocccserve, -fleet a pipelined connection through a
// router into -shards workers. Each runs exactly -jobs streams per
// kernel, checks every stream bit-identical to the serial interp
// reference and prints the same table.
//
// Usage:
//
//	rocccbench [-figures] [-estimation] [-throughput] [-sweep] [-sysbatch] [-serve] [-fleet] [-all]
package main

import (
	"flag"
	"fmt"
	"os"

	"roccc/internal/exp"
	"roccc/internal/serve"
)

func main() {
	var (
		figures    = flag.Bool("figures", false, "print the figure reproductions")
		estimation = flag.Bool("estimation", false, "print the area-estimation experiment")
		throughput = flag.Bool("throughput", false, "print the DCT throughput experiment")
		sweep      = flag.Bool("sweep", false, "print the pool sweep (SystemPool.RunBatch vs the serial interp reference)")
		sysbatch   = flag.Bool("sysbatch", false, "print the system sweep (default streak-batched System vs the serial interp reference)")
		servesweep = flag.Bool("serve", false, "print the serve sweep (rocccserve TCP vs the serial interp reference)")
		fleetsweep = flag.Bool("fleet", false, "print the fleet sweep (pipelined client + sharded router vs the serial interp reference)")
		shardsN    = flag.Int("shards", 3, "worker shards for the -fleet sweep")
		corpusDir  = flag.String("corpus", "ci/corpus", "extra .c kernels (function name k) for every sweep's matrix; empty skips")
		jobs       = flag.Int("jobs", 64, "input streams per kernel in every sweep")
		workers    = flag.Int("workers", 0, "SystemPool width for the -sweep sweep (0 = GOMAXPROCS)")
		all        = flag.Bool("all", false, "print everything")
	)
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintln(os.Stderr, "rocccbench: -jobs must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *shardsN < 1 {
		fmt.Fprintln(os.Stderr, "rocccbench: -shards must be at least 1")
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 0 {
		fmt.Fprintln(os.Stderr, "rocccbench: -workers must be >= 0 (0 = GOMAXPROCS)")
		flag.Usage()
		os.Exit(2)
	}
	rows, err := exp.Table1()
	if err != nil {
		fatal(err)
	}
	fmt.Println(exp.FormatTable1(rows, true))

	if *throughput || *all {
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
	}
	var specs []serve.KernelSpec
	if *sweep || *sysbatch || *servesweep || *fleetsweep || *all {
		if specs, err = exp.SweepSpecs(*corpusDir); err != nil {
			fatal(err)
		}
	}
	for _, s := range []struct {
		on  bool
		run func() (*exp.SweepTable, error)
	}{
		{*sweep, func() (*exp.SweepTable, error) { return exp.PoolSweep(specs, *jobs, *workers) }},
		{*sysbatch, func() (*exp.SweepTable, error) { return exp.SysBatchSweep(specs, *jobs) }},
		{*servesweep, func() (*exp.SweepTable, error) { return exp.ServeSweep(specs, *jobs) }},
		{*fleetsweep, func() (*exp.SweepTable, error) { return exp.FleetSweep(specs, *jobs, *shardsN) }},
	} {
		if s.on || *all {
			tab, err := s.run()
			if err != nil {
				fatal(err)
			}
			fmt.Println(tab)
		}
	}
	if *estimation || *all {
		est, err := exp.AreaEstimation()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatEstimation(est))
		fmt.Println()
	}
	if *all {
		sp, err := exp.Speedups()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.FormatSpeedups(sp))
		fmt.Println()
	}
	if *all {
		ab, err := exp.FormatAblations()
		if err != nil {
			fatal(err)
		}
		fmt.Println(ab)
	}
	if *figures || *all {
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccbench:", err)
	os.Exit(1)
}
