package main

import (
	"fmt"
	"math/rand"
	"reflect"

	"roccc"
	"roccc/internal/exp"
)

// exactMetrics are the figures that depend only on the compiler's output
// and simulated time, never on the host: they must repeat bit for bit.
type exactMetrics struct {
	AreaRatio, ClockRatio float64 // Table 1 geometric means (exp.GeoMeans rows)
	CyclesPerOutput       float64 // geomean over streaming kernels
	Ops, Latches, Latency int     // sums over the kernel set
	BatchedFrac           float64 // streak-batched share of the long streams' cycles
	// Per streaming kernel: the cycle count of one seeded stream, its
	// outputs and feedback latches.
	Cycles    map[string]int
	Outputs   map[string]map[string][]int64
	Feedbacks map[string]map[string]int64
}

// computeExact compiles every kernel afresh, reruns Table 1 and streams
// one seeded input per streaming kernel through a default System,
// checking each stream against the cc interpreter.
func computeExact(ks []*kernel, seed int64) (*exactMetrics, error) {
	rows, err := exp.Table1()
	if err != nil {
		return nil, err
	}
	m := &exactMetrics{
		Cycles:    map[string]int{},
		Outputs:   map[string]map[string][]int64{},
		Feedbacks: map[string]map[string]int64{},
	}
	m.ClockRatio, m.AreaRatio = exp.GeoMeans(rows)
	var cpo []float64
	var batched, longCycles int
	for _, k := range ks {
		res, err := roccc.Compile(k.src, k.fn, k.opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		m.Ops += res.Datapath.NumOps()
		m.Latches += res.Datapath.LatchCount()
		m.Latency += res.Datapath.Latency()
		if !k.stream {
			continue
		}
		t, err := k.newTemplate(rand.New(rand.NewSource(seed)), false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		sys, err := roccc.NewSystem(res, k.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		job := roccc.SweepJob{Inputs: t.inputs}
		if err := k.runStream(sys, &job); err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		if err := t.check(job.Outputs, job.Feedbacks, job.Cycles, 0, nil); err != nil {
			return nil, fmt.Errorf("%s against the cc interpreter: %w", k.name, err)
		}
		m.Cycles[k.name] = sys.Cycles()
		m.Outputs[k.name] = job.Outputs
		m.Feedbacks[k.name] = job.Feedbacks
		cpo = append(cpo, float64(sys.Cycles())/float64(k.outputs))
		if k.long {
			batched += sys.BatchedCycles()
			longCycles += sys.Cycles()
		}
	}
	m.CyclesPerOutput = geomean(cpo)
	if longCycles > 0 {
		m.BatchedFrac = float64(batched) / float64(longCycles)
	}
	return m, nil
}

// exactTwice computes the exact metrics twice and fails on any
// difference, so they can be compared exactly across commits.
func exactTwice(ks []*kernel, seed int64) (*exactMetrics, error) {
	a, err := computeExact(ks, seed)
	if err != nil {
		return nil, err
	}
	b, err := computeExact(ks, seed)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(a, b) {
		return nil, fmt.Errorf("exact metrics differ between two computations: %+v vs %+v",
			summary(a), summary(b))
	}
	return a, nil
}

func summary(m *exactMetrics) [6]float64 {
	return [6]float64{m.AreaRatio, m.ClockRatio, m.CyclesPerOutput,
		float64(m.Ops), float64(m.Latches), float64(m.Latency)}
}
