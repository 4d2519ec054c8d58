// Package dpverify aggregates the repo's static invariant verifiers
// into one pass over a compiled kernel: the data-path plan checks
// (dp.Verify — ring offsets, ringNeed, wrap congruence, the A/B/C batch
// partition, the closed-form feedback cone), the system-plan and
// smart-buffer capacity checks (netlist.VerifySystem), and the VHDL
// structural checks (vhdl.VerifyDatapathFiles / VerifyKernelFiles).
// Nothing here executes a cycle: every check is a static re-derivation
// of a contract from the compiled artifact.
//
// cmd/rocccvet calls VerifyResult on every Table 1 kernel and every
// kernel of the checked-in fuzz corpus (bench.Corpus), each compiled
// with its own options; under the `dpverify` build tag the dp and
// netlist slices also run automatically at plan-compile time.
package dpverify

import (
	"fmt"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
	"roccc/internal/smartbuf"
	"roccc/internal/vhdl"
)

// VerifyResult statically checks every compiled artifact of one kernel:
// the simulator plan (with the threaded lane kernels forced, so the
// lowering runs), the system plan and smart buffers for streaming
// kernels, and the emitted VHDL file set. No check reads the execution
// backend, so one pass covers both. Build failures (bad buffer
// geometry, missing scalars) are returned as errors — they are compile
// rejections, not invariant violations in an artifact that exists.
func VerifyResult(res *core.Result, bus int, scalars map[string]int64) ([]dp.Violation, error) {
	if bus <= 0 {
		bus = 1
	}
	// Build the lane kernels onto the shared plan before verifying, so
	// the lowering runs under -race CI too.
	dp.NewSim(res.Datapath)

	k := res.Kernel
	var vs []dp.Violation
	if k.Nest.Depth() > 0 { // NewSystem needs a loop nest
		sys, err := netlist.NewSystem(k, res.Datapath, netlist.Config{BusElems: bus, Scalars: scalars})
		if err != nil {
			return dp.Verify(res.Datapath), fmt.Errorf("dpverify: building system for %s: %w", k.Name, err)
		}
		// VerifySystem covers dp.Verify plus the system and buffer layers.
		vs = netlist.VerifySystem(sys)
	} else {
		vs = dp.Verify(res.Datapath)
	}

	cfgs, err := smartbuf.KernelConfigs(k, bus)
	if err != nil {
		return vs, fmt.Errorf("dpverify: buffer configuration for %s: %w", k.Name, err)
	}
	files := vhdl.EmitDatapath(res.Datapath)
	if cfgs != nil {
		files = vhdl.EmitKernel(k, files, cfgs, res.Datapath.Latency())
		vs = append(vs, vhdl.VerifyKernelFiles(k, res.Datapath, files)...)
	} else {
		vs = append(vs, vhdl.VerifyDatapathFiles(res.Datapath, files)...)
	}
	return vs, nil
}
