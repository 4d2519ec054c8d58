package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"roccc"
	"roccc/client"
)

// ladderReps is how many unloaded requests each rung times per stream
// shape; the rungs take turns, so host drift hits them alike.
var ladderReps = map[string]int{"short": 2000, "long": 300}

// ladderRungs names the serving path's layers from the inside out.
var ladderRungs = []string{"sysrun", "runjob", "runstream", "route", "tcp"}

// measureLadder times one unloaded stream at each rung of the serving
// stack: System.Run on a bare System (with input load and output
// harvest, as a pool runs it), SystemPool.RunJob, the worker
// Server.RunStream, Router.Dispatch plus RunStream, and RunContext over
// loopback TCP through the front server. Consecutive differences are
// pool checkout, the server registry, router admission and the wire.
// The short stream is the 17-iteration Fig. 3 FIR, the long one the
// wavelet.
func measureLadder(c *config) (map[string]float64, error) {
	shapes := []struct{ label, kernel string }{{"short", "fig3_fir"}, {"long", "wavelet"}}
	var ks []*kernel
	for _, s := range shapes {
		k := find(c.kernels, s.kernel)
		if k == nil {
			return nil, fmt.Errorf("ladder kernel %s missing", s.kernel)
		}
		ks = append(ks, k)
	}
	topo, err := startFleet(ks, 16, nil)
	if err != nil {
		return nil, err
	}
	defer topo.close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	conn, err := client.DialContext(ctx, topo.ln.Addr().String(), client.WithPipelined(1))
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	out := map[string]float64{}
	for si, s := range shapes {
		k := ks[si]
		t, err := k.newTemplate(rand.New(rand.NewSource(c.seed)), false)
		if err != nil {
			return nil, err
		}
		res, err := roccc.Compile(k.src, k.fn, k.opt)
		if err != nil {
			return nil, err
		}
		sys, err := roccc.NewSystem(res, k.cfg)
		if err != nil {
			return nil, err
		}
		pool, err := roccc.NewSystemPool(res, k.cfg, 1)
		if err != nil {
			return nil, err
		}
		worker := topo.shards[topo.router.ShardFor(k.name)]
		jobs := []client.Job{{Inputs: t.inputs}}
		job := &jobs[0]
		rungs := []func() error{
			func() error { return k.runStream(sys, job) },
			func() error { return pool.RunJob(job) },
			func() error { return worker.RunStream(k.name, job) },
			func() error {
				r, err := topo.router.Dispatch(k.name)
				if err != nil {
					return err
				}
				return r.RunStream(job)
			},
			func() error { return conn.RunContext(ctx, k.name, jobs) },
		}
		times := make([][]float64, len(rungs))
		reps := ladderReps[s.label]
		order := rand.New(rand.NewSource(c.seed))
		for rep := -reps / 10; rep < reps; rep++ { // the first tenth warms up
			// A fresh rung order each round, so no rung always runs
			// after the same one (and on its cache state).
			for _, ri := range order.Perm(len(rungs)) {
				run := rungs[ri]
				start := time.Now()
				err := run()
				el := time.Since(start)
				if err == nil {
					err = t.check(job.Outputs, job.Feedbacks, job.Cycles, c.exact.Cycles[k.name], job.Err)
				}
				if err != nil {
					pool.Close()
					return nil, fmt.Errorf("ladder %s %s: %w", s.label, ladderRungs[ri], err)
				}
				if rep >= 0 {
					times[ri] = append(times[ri], el.Seconds()*1e6)
				}
			}
		}
		pool.Close()
		meds := make([]float64, len(rungs))
		for ri, name := range ladderRungs {
			meds[ri] = median(times[ri])
			out[fmt.Sprintf("ladder.%s.%s_us", s.label, name)] = meds[ri]
		}
		fmt.Printf("ladder %s (%s): tcp %.2f µs = System.Run %.2f + pool checkout %.2f + registry %.2f + router %.2f + wire %.2f\n",
			s.label, k.name, meds[4], meds[0], meds[1]-meds[0], meds[2]-meds[1], meds[3]-meds[2], meds[4]-meds[3])
	}
	return out, nil
}
