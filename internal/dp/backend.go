package dp

import "fmt"

// Backend selects how a Sim's StepN, DrainN and RunN run. Step and
// Drain are the interpreter loop on every backend; so are the chunks
// too short to batch and every fault replay. The plan itself — op order, operand
// resolution, wrap specs, ring geometry, batch partition — is shared by
// both backends. The two are pinned bit-identical (outputs, feedback
// latches, cycle counts, fault abort cycles and the typed *FaultError)
// by the differential tests in backend_test.go and batch_test.go; any
// fault inside a lane chunk replays through the interpreter, so abort
// semantics are its by construction.
type Backend uint8

const (
	// BackendThreaded is the fast path and the zero value. StepN, DrainN
	// and RunN run chunks of more than batchSerialMax clocks through lane
	// kernels compiled at plan-cache time: one closure per op with
	// widths, wrap masks and operand layout baked in, taking the chunk's
	// lane stride (stages+n) per call, plus the closed-form feedback cone
	// when the plan's latch recurrence matches it.
	BackendThreaded Backend = iota
	// BackendInterp is the reference: its StepN, DrainN and RunN are the
	// serial Step and Drain loops they are defined to equal.
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

// Backends lists both execution backends, the interp reference first —
// the order the differential tests iterate in.
func Backends() []Backend {
	return []Backend{BackendInterp, BackendThreaded}
}
