// Command rocccsim compiles a streaming kernel and runs it through the
// full execution model of the paper's Fig. 2 (engine → BRAM → smart
// buffer → pipelined data path → BRAM), verifying the hardware against
// the software (interpreter) semantics on random input data.
//
// With -jobs N it verifies N independently-seeded input streams,
// sharded across -workers goroutines through a netlist.SystemPool —
// the sweep-style workload the batch execution path targets.
//
// Usage:
//
//	rocccsim -func fir [-seed 1] [-bus 1] [-jobs 1] [-workers 0] kernel.c
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"roccc"
	"roccc/internal/cc"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rocccsim -func NAME [-seed N] [-bus N] [-jobs N] [-workers N] kernel.c")
	flag.PrintDefaults()
}

func main() {
	var (
		fname   = flag.String("func", "", "kernel function name (required)")
		seed    = flag.Int64("seed", 1, "random input seed (job i uses seed+i)")
		bus     = flag.Int("bus", 1, "memory bus width in elements")
		jobs    = flag.Int("jobs", 1, "independent input streams to verify")
		workers = flag.Int("workers", 0, "goroutines sharding the streams (0 = GOMAXPROCS)")
	)
	flag.Usage = usage
	flag.Parse()
	// Misused flags exit through usage, never through a panic: a
	// non-positive bus would size zero-length buffers, and a
	// non-positive job count has nothing to run.
	if *fname == "" || flag.NArg() != 1 || *bus < 1 || *jobs < 1 {
		usage()
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	src := string(srcBytes)
	res, err := roccc.Compile(src, *fname, roccc.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	file, err := cc.Parse(src)
	if err != nil {
		fatal(err)
	}
	info, err := cc.Analyze(file)
	if err != nil {
		fatal(err)
	}

	// One job per stream, each with its own deterministic input data.
	batch := make([]roccc.SweepJob, *jobs)
	for j := range batch {
		rng := rand.New(rand.NewSource(*seed + int64(j)))
		inputs := map[string][]int64{}
		for _, w := range res.Kernel.Reads {
			vals := make([]int64, w.Arr.Len())
			for i := range vals {
				vals[i] = w.Arr.Elem.Wrap(rng.Int63n(1 << uint(min(w.Arr.Elem.Bits, 16))))
			}
			inputs[w.Arr.Name] = vals
		}
		batch[j] = roccc.SweepJob{Inputs: inputs}
	}

	pool, err := roccc.NewSystemPool(res, roccc.SystemConfig{BusElems: *bus}, *workers)
	if err != nil {
		fatal(err)
	}
	defer pool.Close()
	if err := pool.RunBatch(batch); err != nil {
		fatal(err)
	}

	// Verify every stream against the C interpreter.
	mismatches := 0
	for j := range batch {
		ref := cc.NewInterp(info)
		for name, vals := range batch[j].Inputs {
			ref.SetArray(name, vals)
		}
		if _, _, err := ref.Call(*fname); err != nil {
			fatal(err)
		}
		for _, wr := range res.Kernel.Writes {
			hw := batch[j].Outputs[wr.Arr.Name]
			sw := ref.Arrays[wr.Arr.Name]
			for i := range sw {
				if hw[i] != sw[i] {
					if mismatches < 5 {
						fmt.Printf("MISMATCH job %d %s[%d]: hw=%d sw=%d\n", j, wr.Arr.Name, i, hw[i], sw[i])
					}
					mismatches++
				}
			}
		}
	}
	iters := res.Kernel.Nest.TotalIterations()
	if *jobs == 1 {
		fmt.Printf("ran %d iterations in %d cycles (latency %d, initiation interval 1)\n",
			iters, batch[0].Cycles, res.Datapath.Latency())
	} else {
		var cycles int64
		for j := range batch {
			cycles += int64(batch[j].Cycles)
		}
		fmt.Printf("ran %d streams × %d iterations in %d total cycles across %d workers (latency %d, initiation interval 1)\n",
			*jobs, iters, cycles, pool.Workers(), res.Datapath.Latency())
	}
	for _, wr := range res.Kernel.Writes {
		fmt.Printf("output %s: %d elements × %d streams checked\n", wr.Arr.Name, wr.Arr.Len(), *jobs)
	}
	if mismatches == 0 {
		fmt.Println("hardware == software: all outputs bit-identical")
	} else {
		fmt.Printf("%d mismatches\n", mismatches)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocccsim:", err)
	os.Exit(1)
}
