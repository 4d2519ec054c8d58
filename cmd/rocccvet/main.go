// rocccvet statically verifies every compiled artifact of the repo's
// kernels without executing a cycle: simulator plans (ring offsets,
// wrap congruence, the A/B/C batch partition, closed-form feedback
// cones), system plans (routing tables, odometer, harvest ring), smart
// buffers (span+bus capacity contract) and the emitted VHDL file sets.
//
// It runs the nine Table 1 kernels plus every .c file in the checked-in
// fuzz corpus (ci/corpus, read from the working directory), each once,
// and exits nonzero on any violation. CI's `static` gate parses the
// final summary line and requires zero violations inside a wall-clock
// budget.
//
// Usage:
//
//	rocccvet [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"roccc/internal/bench"
	"roccc/internal/dp"
	"roccc/internal/dpverify"
)

func main() {
	verbose := flag.Bool("v", false, "report every verified kernel, not only failures")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "rocccvet: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	corpus, err := bench.Corpus(bench.CorpusDir)
	if err == nil && len(corpus) == 0 {
		err = fmt.Errorf("no .c kernels in %s (run from the repo root)", bench.CorpusDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rocccvet: corpus: %v\n", err)
		os.Exit(2)
	}

	kernels := append(bench.All(), corpus...)
	var violations, broken int
	for _, k := range kernels {
		vs, err := vet(k)
		switch {
		case err != nil:
			broken++
			fmt.Printf("FAIL %s: %v\n", k.Name, err)
		case len(vs) > 0:
			violations += len(vs)
			for _, v := range vs {
				fmt.Printf("FAIL %s: %s\n", k.Name, v)
			}
		case *verbose:
			fmt.Printf("ok   %s\n", k.Name)
		}
	}

	// Summary format is load-bearing: cigate's static gate parses
	// "<n> violations" and the elapsed seconds from this line.
	fmt.Printf("rocccvet: %d kernels, %d violations, %d broken, %.2fs\n",
		len(kernels), violations+broken, broken, time.Since(start).Seconds())
	if violations+broken > 0 {
		os.Exit(1)
	}
}

// vet compiles one kernel with its own options and verifies every
// artifact; a compile failure is an error, not a violation.
func vet(k bench.Kernel) ([]dp.Violation, error) {
	res, err := k.Compile()
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return dpverify.VerifyResult(res, k.BusElems, k.Scalars)
}
