// Package roccc is a from-scratch Go reproduction of the ROCCC C-to-VHDL
// compiler described in "Optimized Generation of Data-path from C Codes
// for FPGAs" (Guo, Buyukkurt, Najjar, Vissers — DATE 2005).
//
// The library compiles restricted-C kernels into pipelined data paths:
//
//	res, err := roccc.Compile(src, "fir", roccc.DefaultOptions())
//	files, err := roccc.GenerateVHDL(res)     // RTL VHDL (§4.2.4)
//	report := roccc.Synthesize(res, 1)        // Virtex-II area/clock model
//	sys, _ := roccc.NewSystem(res, roccc.SystemConfig{BusElems: 1})
//
// The full pipeline follows the paper: C front end → loop-level
// optimization → scalar replacement and feedback detection (§4.1) →
// SUIFvm lowering, CFG and SSA (§4.2.1) → data-path building with soft,
// mux and pipe nodes (§4.2.2) → latch placement (§4.2.3) → bit-width
// inference and VHDL generation (§4.2.4). Generated circuits are
// cycle-accurately simulated and verified against the C semantics.
//
// Simulation follows hardware drain semantics: pipeline bubbles (fill
// and drain cycles) carry a poison bit, so ops fed by a bubble cannot
// fault — a zero divisor or out-of-range LUT index in a bubble lane is
// masked, exactly as real hardware ignores bubble lanes while flushing —
// while the same fault on a valid iteration still aborts the run. A
// System runs once per Reset: Run a second time without Reset is an
// error (its address generators and buffers are consumed), and Output
// errors until a run has completed.
package roccc

import (
	"fmt"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/netlist"
	"roccc/internal/smartbuf"
	"roccc/internal/synth"
	"roccc/internal/vhdl"
)

// Options control compilation; see core.Options for the field docs.
type Options = core.Options

// Result carries every intermediate representation of a compiled kernel.
type Result = core.Result

// VHDLFile is one generated design unit.
type VHDLFile = vhdl.File

// Report is a synthesis (area/clock) report.
type Report = synth.Report

// System is the Fig. 2 execution model: BRAMs, smart buffers, address
// generators, controller and the pipelined data path.
type System = netlist.System

// SystemConfig configures system construction.
type SystemConfig = netlist.Config

// BackendInterp is a value SystemConfig.Backend once took. It has no
// effect: a System runs one fast path, and SystemConfig{Serial: true}
// is its reference. It stays only for the benchmark module (perfbench),
// which still sets the field.
const BackendInterp = 1

// Sim is the cycle-accurate data-path simulator (the compiled,
// allocation-free core).
type Sim = dp.Sim

// SystemPool is a pool of Reset-able Systems for one compiled kernel
// with persistent workers sharding independent input streams across
// cores (netlist.SystemPool).
type SystemPool = netlist.SystemPool

// SweepJob is one independent input stream for SystemPool.RunBatch.
type SweepJob = netlist.Job

// DefaultOptions returns the standard optimizing configuration.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compile compiles the kernel function fname from C source text through
// the full pipeline.
func Compile(src, fname string, opt Options) (*Result, error) {
	return core.CompileSource(src, fname, opt)
}

// GenerateVHDL renders the kernel's complete VHDL file set: the
// pipelined data path, ROM components with init files, smart buffers,
// address generators (both for a one-element bus) and the controller
// FSM. Kernels without a streaming loop nest deliberately get no buffer
// units (a combinational data path needs none); for streaming kernels a
// buffer configuration failure is a real error and is returned rather
// than silently producing an incomplete file set.
func GenerateVHDL(res *Result) ([]VHDLFile, error) {
	cfgs, err := smartbuf.KernelConfigs(res.Kernel, 1)
	if err != nil {
		return nil, fmt.Errorf("roccc: smart-buffer configuration for %s: %w", res.Kernel.Name, err)
	}
	files := vhdl.EmitDatapath(res.Datapath)
	return vhdl.EmitKernel(res.Kernel, files, cfgs, res.Datapath.Latency()), nil
}

// Synthesize costs the compiled kernel on the Virtex-II xc2v2000-5
// model (the reproduction's substitute for Xilinx ISE), including smart
// buffers and controller for streaming kernels. A kernel whose buffers
// cannot be configured at busElems is costed as its data path alone.
func Synthesize(res *Result, busElems int) *Report {
	opt, _ := synth.KernelOptions(res.Kernel, busElems)
	return synth.Synthesize(res.Datapath, opt)
}

// NewSystem builds the full execution-model simulation for a compiled
// streaming kernel.
func NewSystem(res *Result, cfg SystemConfig) (*System, error) {
	return netlist.NewSystem(res.Kernel, res.Datapath, cfg)
}

// NewSystemPool builds a pool of reusable Systems for a compiled
// streaming kernel; RunBatch on it shards independent input streams
// across up to workers goroutines (<= 0 means GOMAXPROCS).
func NewSystemPool(res *Result, cfg SystemConfig, workers int) (*SystemPool, error) {
	return netlist.NewSystemPool(res.Kernel, res.Datapath, cfg, workers)
}

// NewSim builds a cycle-accurate simulator for the data path alone
// (combinational kernels and unit tests). The data path's execution
// plan is compiled once and cached on it, so repeated NewSim calls in
// sweeps skip recompilation.
func NewSim(res *Result) *Sim { return dp.NewSim(res.Datapath) }

// BufferConfig returns the smart-buffer configuration of read window i
// of a compiled kernel, or an error if the kernel has no window i. The
// configuration is shared (smartbuf.KernelConfigs): do not modify it.
func BufferConfig(res *Result, i, busElems int) (smartbuf.Config, error) {
	cfgs, err := smartbuf.KernelConfigs(res.Kernel, busElems)
	if err != nil {
		return smartbuf.Config{}, err
	}
	if i < 0 || i >= len(cfgs) {
		return smartbuf.Config{}, fmt.Errorf("roccc: %s has no read window %d (it has %d)", res.Kernel.Name, i, len(cfgs))
	}
	return cfgs[i], nil
}
