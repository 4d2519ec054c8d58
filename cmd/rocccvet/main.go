// rocccvet statically verifies every compiled artifact of the repo's
// kernels without executing a cycle: simulator plans (ring offsets,
// wrap congruence, the A/B/C batch partition, closed-form feedback
// cones), system plans (routing tables, odometer, harvest ring), smart
// buffers (span+bus capacity contract) and the emitted VHDL file sets.
//
// It runs the nine Table 1 kernels plus every .c file in the checked-in
// fuzz corpus (ci/corpus), each once, and exits nonzero on any violation. CI's `static` gate
// parses the final summary line and requires zero violations inside a
// wall-clock budget.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"roccc/internal/bench"
	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/dpverify"
)

func main() {
	corpusDir := flag.String("corpus", "ci/corpus", "directory of extra .c kernels (function name k); empty string skips the corpus")
	verbose := flag.Bool("v", false, "report every verified kernel, not only failures")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "rocccvet: unexpected arguments: %s\n", strings.Join(flag.Args(), " "))
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	var kernels, violations, broken int
	report := func(name string, vs []dp.Violation, err error) {
		kernels++
		switch {
		case err != nil:
			broken++
			fmt.Printf("FAIL %s: %v\n", name, err)
		case len(vs) > 0:
			violations += len(vs)
			for _, v := range vs {
				fmt.Printf("FAIL %s: %s\n", name, v)
			}
		case *verbose:
			fmt.Printf("ok   %s\n", name)
		}
	}

	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			report(k.Name, nil, fmt.Errorf("compile: %w", err))
			continue
		}
		vs, err := dpverify.VerifyResult(res, k.BusElems, k.Scalars)
		report(k.Name, vs, err)
	}

	if *corpusDir != "" {
		files, err := filepath.Glob(filepath.Join(*corpusDir, "*.c"))
		if err == nil && len(files) == 0 {
			err = fmt.Errorf("no .c kernels in %s (run from the repo root, or pass -corpus)", *corpusDir)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "rocccvet: corpus: %v\n", err)
			os.Exit(2)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rocccvet: corpus: %v\n", err)
				os.Exit(2)
			}
			vs, err := dpverify.VerifySource(string(src), "k", core.DefaultOptions(), 1, nil)
			report(filepath.Base(f), vs, err)
		}
	}

	// Summary format is load-bearing: cigate's static gate parses
	// "<n> violations" and the elapsed seconds from this line.
	fmt.Printf("rocccvet: %d kernels, %d violations, %d broken, %.2fs\n",
		kernels, violations+broken, broken, time.Since(start).Seconds())
	if violations+broken > 0 {
		os.Exit(1)
	}
}
