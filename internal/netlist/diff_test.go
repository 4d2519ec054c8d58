package netlist

import (
	"errors"
	"strings"
	"testing"

	"roccc/internal/dp"
)

// TestDiffJob pins the definition of a bit-identical stream: identical
// jobs and equal faults pass, and every divergence fails with an error
// that names it.
func TestDiffJob(t *testing.T) {
	clean := func() *Job {
		return &Job{
			Cycles:    40,
			Outputs:   map[string][]int64{"C": {1, 2, 3}, "D": {4}},
			Feedbacks: map[string]int64{"sum": 0, "n": 7},
		}
	}
	fault := func() *Job {
		return &Job{Err: &dp.FaultError{Op: dp.FaultDiv, Cycle: 12, Msg: "dp: divide by zero at cycle 12"}}
	}
	for _, tc := range []struct {
		name string
		got  func(j *Job)
		ref  func() *Job
		want string // "" means DiffJob must return nil
	}{
		{"identical", func(*Job) {}, clean, ""},
		{"equal fault", func(*Job) {}, fault, ""},
		{"wrapped equal fault", func(j *Job) { j.Err = errors.Join(errors.New("stream 0"), j.Err) }, fault, ""},
		{"nil and empty latch sets", func(j *Job) { j.Feedbacks = nil }, func() *Job {
			j := clean()
			j.Feedbacks = map[string]int64{}
			return j
		}, ""},
		{"wrong value", func(j *Job) { j.Outputs["C"][1] = 9 }, clean, "C[1] = 9, reference 2"},
		{"wrong length", func(j *Job) { j.Outputs["C"] = j.Outputs["C"][:2] }, clean, "output C has 2 elements, reference 3"},
		{"missing output", func(j *Job) { delete(j.Outputs, "D") }, clean, "output D missing"},
		{"extra output", func(j *Job) { j.Outputs["E"] = []int64{0} }, clean, "extra output E"},
		{"cycles", func(j *Job) { j.Cycles++ }, clean, "41 cycles, reference 40"},
		{"missing zero latch", func(j *Job) { delete(j.Feedbacks, "sum") }, clean, "latch sum missing"},
		{"wrong latch", func(j *Job) { j.Feedbacks["n"] = 8 }, clean, "latch n = 8, reference 7"},
		{"extra latch", func(j *Job) { j.Feedbacks["acc"] = 0 }, clean, "extra latch acc"},
		{"clean against a fault", func(j *Job) { *j = *clean() }, fault, "reference faulted"},
		{"fault against clean", func(j *Job) { j.Err = fault().Err }, clean, "reference ran clean"},
		{"fault op", func(j *Job) { j.Err.(*dp.FaultError).Op = dp.FaultRem }, fault, "fault {Op:rem"},
		{"fault cycle", func(j *Job) { j.Err.(*dp.FaultError).Cycle++ }, fault, "Cycle:13"},
		{"failed reference", func(*Job) {}, func() *Job {
			j := clean()
			j.Err = errors.New("netlist: no input array X")
			return j
		}, "reference failed: netlist: no input array X"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.ref()
			got := tc.ref()
			tc.got(got)
			err := DiffJob(got, ref)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("DiffJob = %v, want nil", err)
			case tc.want != "" && err == nil:
				t.Fatalf("DiffJob = nil, want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("DiffJob = %q, want it to name %q", err, tc.want)
			}
		})
	}
}
