package netlist

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"roccc/internal/dp"
)

// DiffJob is the single definition of a bit-identical stream: it
// returns nil only when got computed exactly what the reference ref
// computed, and otherwise an error naming the first divergence.
//
//   - ref faulted: got must carry an equal *dp.FaultError (same Op,
//     Cycle and Msg).
//   - ref ran clean: got must have no error, the same Cycles, the same
//     set of output arrays with equal lengths and values, and the same
//     set of feedback latches with equal values.
//
// A ref that failed any other way is reported as a failure, never
// compared.
func DiffJob(got, ref *Job) error {
	if ref.Err != nil {
		var want *dp.FaultError
		if !errors.As(ref.Err, &want) {
			return fmt.Errorf("reference failed: %w", ref.Err)
		}
		var fe *dp.FaultError
		if !errors.As(got.Err, &fe) {
			return fmt.Errorf("error %v, reference faulted with %+v", got.Err, *want)
		}
		if *fe != *want {
			return fmt.Errorf("fault %+v, reference fault %+v", *fe, *want)
		}
		return nil
	}
	if got.Err != nil {
		return fmt.Errorf("error %v, reference ran clean", got.Err)
	}
	if got.Cycles != ref.Cycles {
		return fmt.Errorf("%d cycles, reference %d", got.Cycles, ref.Cycles)
	}
	for _, name := range slices.Sorted(maps.Keys(ref.Outputs)) {
		want := ref.Outputs[name]
		vals, ok := got.Outputs[name]
		if !ok {
			return fmt.Errorf("output %s missing", name)
		}
		if len(vals) != len(want) {
			return fmt.Errorf("output %s has %d elements, reference %d", name, len(vals), len(want))
		}
		for i := range want {
			if vals[i] != want[i] {
				return fmt.Errorf("%s[%d] = %d, reference %d", name, i, vals[i], want[i])
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(got.Outputs)) {
		if _, ok := ref.Outputs[name]; !ok {
			return fmt.Errorf("extra output %s", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(ref.Feedbacks)) {
		v, ok := got.Feedbacks[name]
		if !ok {
			return fmt.Errorf("latch %s missing", name)
		}
		if want := ref.Feedbacks[name]; v != want {
			return fmt.Errorf("latch %s = %d, reference %d", name, v, want)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(got.Feedbacks)) {
		if _, ok := ref.Feedbacks[name]; !ok {
			return fmt.Errorf("extra latch %s", name)
		}
	}
	return nil
}
