// Accumulator: the paper's Fig. 4 walk-through. The loop-carried scalar
// sum is detected by the front-end data-flow analysis, annotated with
// ROCCC_load_prev / ROCCC_store2next, and realized as a feedback latch
// (Fig. 7) that updates once per clock at initiation interval 1.
package main

import (
	"fmt"
	"log"

	"roccc"
)

const accumC = `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) {
		sum = sum + A[i];
	}
}
`

func main() {
	res, err := roccc.Compile(accumC, "accum", roccc.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("exported data-path function (Fig. 4c):")
	fmt.Println(res.Kernel.DataPathC())
	fmt.Println()
	for _, fb := range res.Datapath.Feedbacks {
		fmt.Printf("feedback latch: %s (reset to %d), %d LPR reader(s), SNX stage %d\n",
			fb.State.Name, fb.Init, len(fb.LPRs), fb.SNX.Stage)
	}

	sys, err := roccc.NewSystem(res, roccc.SystemConfig{BusElems: 1})
	if err != nil {
		log.Fatal(err)
	}
	in := make([]int64, 32)
	var want int64
	for i := range in {
		in[i] = int64(i + 1)
		want += in[i]
	}
	if err := sys.LoadInput("A", in); err != nil {
		log.Fatal(err)
	}
	sim, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}
	got, ok := sim.FeedbackByName("sum")
	if !ok {
		log.Fatal("no feedback latch named sum")
	}
	fmt.Printf("\nsum(1..32) in hardware = %d (want %d) after %d cycles\n", got, want, sys.Cycles())
	if got != want {
		log.Fatal("hardware sum != software sum")
	}
	fmt.Println("one loop iteration retired per clock: the accumulate feedback")
	fmt.Println("path stays inside a single pipeline stage (II = 1).")
}
