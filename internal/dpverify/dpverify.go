// Package dpverify aggregates the repo's static invariant verifiers
// into one pass over a compiled kernel: the data-path plan checks
// (dp.Verify — ring offsets, ringNeed, wrap congruence, the A/B/C batch
// partition, the closed-form feedback cone), the system-plan and
// smart-buffer capacity checks (netlist.VerifySystem), and the VHDL
// structural checks (vhdl.VerifyDatapathFiles / VerifyKernelFiles).
// Nothing here executes a cycle: every check is a static re-derivation
// of a contract from the compiled artifact.
//
// cmd/rocccvet drives this package over Table 1 and the checked-in fuzz
// corpus; under the `dpverify` build tag the dp and netlist slices also
// run automatically at plan-compile time.
package dpverify

import (
	"fmt"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
	"roccc/internal/synth"
	"roccc/internal/vhdl"
)

// Report is one kernel × backend verification outcome.
type Report struct {
	Kernel  string
	Backend dp.Backend
	// Violations are the named invariant failures; empty means verified.
	Violations []dp.Violation
}

// VerifyResult statically checks every compiled artifact of one kernel
// under one execution backend: the simulator plan (with the backend's
// compiled structures forced, so the threaded lowering runs), the
// system plan and smart buffers for streaming kernels, and the emitted
// VHDL file set. Build failures (bad buffer geometry, missing scalars)
// are returned as errors — they are compile rejections, not invariant
// violations in an artifact that exists.
func VerifyResult(res *core.Result, bus int, scalars map[string]int64, backend dp.Backend) ([]dp.Violation, error) {
	if bus <= 0 {
		bus = 1
	}
	// Force the backend's compiled structures onto the shared plan
	// before verifying: the threaded lowering must exist for the
	// backend-specific checks (and for -race CI) to mean anything.
	dp.NewSimWith(res.Datapath, backend)

	k := res.Kernel
	streaming := k.Nest.Depth() > 0
	var vs []dp.Violation
	if streaming {
		sys, err := netlist.NewSystem(k, res.Datapath, netlist.Config{
			BusElems: bus, Scalars: scalars, Backend: backend,
		})
		if err != nil {
			return dp.Verify(res.Datapath), fmt.Errorf("dpverify: building system for %s: %w", k.Name, err)
		}
		// VerifySystem covers dp.Verify plus the system and buffer layers.
		vs = netlist.VerifySystem(sys)
	} else {
		vs = dp.Verify(res.Datapath)
	}

	files := vhdl.EmitDatapath(res.Datapath)
	if streaming && len(k.Reads) > 0 {
		cfgs, err := synth.KernelBufferConfigs(k, bus)
		if err != nil {
			return vs, fmt.Errorf("dpverify: buffer configuration for %s: %w", k.Name, err)
		}
		files = vhdl.EmitKernel(k, files, cfgs, res.Datapath.Latency())
		vs = append(vs, vhdl.VerifyKernelFiles(k, res.Datapath, files)...)
	} else {
		vs = append(vs, vhdl.VerifyDatapathFiles(res.Datapath, files)...)
	}
	return vs, nil
}

// VerifySource compiles a kernel from C source and verifies it under
// one backend — the corpus entry point.
func VerifySource(src, fname string, opt core.Options, bus int, scalars map[string]int64, backend dp.Backend) ([]dp.Violation, error) {
	res, err := core.CompileSource(src, fname, opt)
	if err != nil {
		return nil, fmt.Errorf("dpverify: compiling %s: %w", fname, err)
	}
	return VerifyResult(res, bus, scalars, backend)
}
