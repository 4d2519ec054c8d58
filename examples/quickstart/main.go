// Quickstart: compile the paper's 5-tap FIR (Fig. 3) from C to a
// pipelined data path, print the generated VHDL, synthesize it on the
// Virtex-II model, and stream data through the full execution model of
// Fig. 2 — verifying hardware against software.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"roccc"
)

const firC = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

func main() {
	// 1. Compile (front end, scalar replacement, SSA, data path, §4).
	res, err := roccc.Compile(firC, "fir", roccc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exported data-path function (Fig. 3c):")
	fmt.Println(res.Kernel.DataPathC())
	fmt.Println()
	fmt.Println(res.Datapath.Summary())

	// 2. Generate VHDL (§4.2.4).
	files, err := roccc.GenerateVHDL(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngenerated %d VHDL files:\n", len(files))
	for _, f := range files {
		fmt.Printf("  %s (%d bytes)\n", f.Name, len(f.Content))
	}

	// 3. Synthesize on the Virtex-II model (§5).
	fmt.Println()
	fmt.Println(roccc.Synthesize(res, 1))

	// 4. Run the full system (Fig. 2) and check against software.
	sys, err := roccc.NewSystem(res, roccc.SystemConfig{BusElems: 1})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	in := make([]int64, 21)
	for i := range in {
		in[i] = rng.Int63n(255) - 128
	}
	if err := sys.LoadInput("A", in); err != nil {
		log.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	out, err := sys.Output("C")
	if err != nil {
		log.Fatal(err)
	}
	ok := true
	for i := 0; i < 17; i++ {
		want := 3*in[i] + 5*in[i+1] + 7*in[i+2] + 9*in[i+3] - in[i+4]
		if out[i] != want {
			fmt.Printf("C[%d] = %d, want %d\n", i, out[i], want)
			ok = false
		}
	}
	fmt.Printf("\nran 17 iterations in %d cycles (pipeline latency %d)\n",
		sys.Cycles(), res.Datapath.Latency())
	if !ok {
		log.Fatal("hardware output != software output")
	}
	fmt.Println("hardware output == software output: OK")
}
