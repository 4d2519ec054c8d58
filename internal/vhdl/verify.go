package vhdl

// verify.go is the VHDL slice of the static invariant verifier
// (internal/dpverify, cmd/rocccvet): structural checks over the emitted
// file set — entity/port correspondence with the data path, ROM
// component and init-file presence, feedback-latch registers, a
// declaration for every signal a unit assigns, and the per-read-port
// buffer/generator/controller units of a full kernel emission. This is
// also the shared home for the pipeline valid-chain check: once the
// emitted data path carries an explicit valid chain (the ROADMAP's VHDL
// drain-semantics item), VerifyDatapathFiles requires its length to
// equal Datapath.Stages; until the signal appears in the output, the
// check stays dormant.

import (
	"fmt"
	"strconv"
	"strings"

	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// validChainSignal is the signal-name prefix the valid-chain check
// keys on. The emitter does not generate it yet; the check arms itself
// automatically when it does.
const validChainSignal = "valid_pipe"

// sigName is the VHDL signal the emitter writes for a virtual register.
func sigName(r vm.Reg) string { return "vr" + strconv.Itoa(int(r)) }

// VerifyDatapathFiles structurally checks an EmitDatapath file set
// against the data path it was emitted from.
func VerifyDatapathFiles(d *dp.Datapath, files []File) []dp.Violation {
	var vs []dp.Violation
	add := func(inv, format string, args ...any) {
		vs = append(vs, dp.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
	byName := make(map[string]string, len(files))
	for _, f := range files {
		byName[f.Name] = f.Content
	}
	topName := d.Name + "_dp.vhd"
	top, ok := byName[topName]
	if !ok {
		add("vhdl/file-set", "file set has no data-path unit %s", topName)
		return vs
	}
	if !strings.Contains(top, "entity "+d.Name+"_dp is") {
		add("vhdl/entity", "%s does not declare entity %s_dp", topName, d.Name)
	}
	// Port correspondence: every data-path input and output port must
	// appear in the entity with its declared direction.
	for _, p := range d.Inputs {
		if !strings.Contains(top, sigName(p.Reg)+" : in ") {
			add("vhdl/entity", "input port %s (%s) missing from entity %s_dp", sigName(p.Reg), p.Var.Name, d.Name)
		}
	}
	for _, p := range d.Outputs {
		if !strings.Contains(top, sigName(p.Reg)+"_out : out ") {
			add("vhdl/entity", "output port %s_out (%s) missing from entity %s_dp", sigName(p.Reg), p.Var.Name, d.Name)
		}
	}
	// Feedback latches: each needs a declared fb_ signal, a reset
	// assignment and a clocked update in the pipeline process.
	for _, fb := range d.Feedbacks {
		sig := "fb_" + fb.State.Name
		if !strings.Contains(top, "signal "+sig+" :") {
			add("vhdl/feedback", "feedback latch signal %s not declared", sig)
			continue
		}
		if strings.Count(top, sig+" <= ") < 2 {
			add("vhdl/feedback", "feedback latch %s lacks reset or clocked update", sig)
		}
	}
	// ROM instantiations: every LUT op must instantiate its ROM, and the
	// ROM's component file must be in the set.
	romSeen := map[*hir.Rom]bool{}
	for _, op := range d.Ops {
		if op.Instr.Op != vm.LUT || romSeen[op.Instr.Rom] {
			continue
		}
		romSeen[op.Instr.Rom] = true
		name := op.Instr.Rom.Name
		if !strings.Contains(top, "entity work.rom_"+name) {
			add("vhdl/rom", "LUT op for ROM %s is never instantiated in %s", name, topName)
		}
		if _, ok := byName["rom_"+name+".vhd"]; !ok {
			add("vhdl/rom", "ROM component file rom_%s.vhd missing from file set", name)
		}
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name, ".vhd") {
			vs = append(vs, verifyDeclared(f)...)
		}
	}
	vs = append(vs, verifyValidChain(d, topName, top)...)
	return vs
}

// verifyDeclared checks that every signal a design unit assigns with
// <= is a port of its entity or a declared signal: an assignment to
// anything else does not analyze.
func verifyDeclared(f File) []dp.Violation {
	lines := strings.Split(f.Content, "\n")
	declared := map[string]bool{}
	for _, line := range lines {
		code, _, _ := strings.Cut(line, "--")
		names, rest, ok := strings.Cut(strings.TrimSpace(code), " : ")
		if !ok {
			continue
		}
		if sigs, ok := strings.CutPrefix(names, "signal "); ok {
			for _, name := range strings.Split(sigs, ",") {
				declared[strings.TrimSpace(name)] = true
			}
		} else if strings.HasPrefix(rest, "in ") || strings.HasPrefix(rest, "out ") {
			declared[names] = true
		}
	}
	var vs []dp.Violation
	for i, line := range lines {
		code, _, _ := strings.Cut(line, "--")
		lhs, _, ok := strings.Cut(code, "<=")
		if !ok {
			continue
		}
		if target := assignTarget(lhs); !declared[target] {
			vs = append(vs, dp.Violation{Invariant: "vhdl/declared",
				Detail: fmt.Sprintf("%s:%d assigns %s, which is neither a port nor a declared signal", f.Name, i+1, target)})
		}
	}
	return vs
}

// assignTarget returns the signal named by the text left of an
// assignment's <=: the last identifier, without an index or slice
// ("ring(1 to 4)" is ring) and after any "when ... =>" or "then" that
// opens the statement.
func assignTarget(lhs string) string {
	lhs = strings.TrimSpace(lhs)
	if strings.HasSuffix(lhs, ")") {
		if open := strings.LastIndexByte(lhs, '('); open >= 0 {
			lhs = strings.TrimSpace(lhs[:open])
		}
	}
	if sp := strings.LastIndexByte(lhs, ' '); sp >= 0 {
		lhs = lhs[sp+1:]
	}
	return lhs
}

// verifyValidChain checks the emitted pipeline valid chain, when
// present, against the data path's stage count: a drain-correct circuit
// needs exactly Stages valid registers between admission and exit.
// Dormant (no violations) while the emitter produces no valid chain.
func verifyValidChain(d *dp.Datapath, name, content string) []dp.Violation {
	if !strings.Contains(content, validChainSignal) {
		return nil
	}
	n := strings.Count(content, validChainSignal+"_q")
	if n == d.Stages {
		return nil
	}
	return []dp.Violation{{Invariant: "vhdl/valid-chain",
		Detail: fmt.Sprintf("%s carries %d valid-chain registers for %d pipeline stages", name, n, d.Stages)}}
}

// VerifyKernelFiles structurally checks a full EmitKernel file set for
// a streaming kernel: the data-path checks plus one smart buffer and
// address generator per read window, the controller FSM, and a
// plain-text init file per ROM.
func VerifyKernelFiles(k *hir.Kernel, d *dp.Datapath, files []File) []dp.Violation {
	vs := VerifyDatapathFiles(d, files)
	add := func(inv, format string, args ...any) {
		vs = append(vs, dp.Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
	}
	byName := make(map[string]bool, len(files))
	for _, f := range files {
		byName[f.Name] = true
	}
	for _, r := range k.Reads {
		if !byName[fmt.Sprintf("%s_smartbuf_%s.vhd", k.Name, r.Arr.Name)] {
			add("vhdl/file-set", "no smart-buffer unit for read window %s", r.Arr.Name)
		}
		if !byName[fmt.Sprintf("%s_addrgen_%s.vhd", k.Name, r.Arr.Name)] {
			add("vhdl/file-set", "no address generator for read window %s", r.Arr.Name)
		}
	}
	if len(k.Reads) > 0 && !byName[k.Name+"_ctrl.vhd"] {
		add("vhdl/file-set", "no controller FSM unit %s_ctrl.vhd", k.Name)
	}
	for _, r := range k.Roms {
		if !byName[r.Name+".init"] {
			add("vhdl/rom", "ROM %s has no plain-text init file", r.Name)
		}
	}
	return vs
}
