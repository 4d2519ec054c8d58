package dp

import "fmt"

// Backend selects how a Sim executes the compiled simPlan. The plan
// itself — op order, operand resolution, wrap specs, ring geometry,
// batch partition — is shared by both backends; what differs is the
// dispatch machinery that walks it. The two are pinned bit-identical
// (outputs, feedback latches, cycle counts, fault abort cycles and the
// typed *FaultError) by the differential tests in backend_test.go and
// batch_test.go; any fault inside a compiled step or chunk replays
// through the interpreter, so abort semantics are its by construction.
type Backend uint8

const (
	// BackendThreaded is the fast path and the zero value. It lowers the
	// plan into per-kernel threaded code at plan-cache time: one closure
	// per op with widths, wrap masks, ring offsets and operand indices
	// baked in as captured constants — no switch, no per-op descriptor
	// loads — for both the serial Step loop and the StepN/DrainN lane
	// kernels (which take the chunk's lane stride, stages+n, per call),
	// plus the closed-form feedback cone when the plan's latch
	// recurrence matches it.
	BackendThreaded Backend = iota
	// BackendInterp is the switch-dispatch interpreter loop over the
	// plan's cop descriptors — the reference semantics. Its StepN and
	// DrainN are the serial Step and Drain loops they are defined to
	// equal.
	BackendInterp
)

// String returns the backend's name.
func (b Backend) String() string {
	switch b {
	case BackendInterp:
		return "interp"
	case BackendThreaded:
		return "threaded"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend resolves a backend name.
func ParseBackend(s string) (Backend, error) {
	for _, b := range Backends() {
		if s == b.String() {
			return b, nil
		}
	}
	return BackendThreaded, fmt.Errorf("dp: unknown backend %q (want interp or threaded)", s)
}

// Backends lists both execution backends, the interp reference first —
// the order the differential tests iterate in.
func Backends() []Backend {
	return []Backend{BackendInterp, BackendThreaded}
}
