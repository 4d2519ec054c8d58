// Package vhdl implements §4.2.4 of the paper: RTL VHDL generation.
// "ROCCC generates one VHDL component for each CFG node that goes to
// hardware. In a node, every virtual register is single assigned and is
// converted into wires in hardware. All arithmetic opcodes in SUIFvm
// have corresponding functionality in IEEE 1076.3 VHDL with the
// exception of division. Arithmetic, logic and copying instructions
// become combinational or sequential VHDL statement according to whether
// the instruction needs latched or not. A LUT instruction invokes an
// instantiation of a lookup table component."
package vhdl

import (
	"slices"
	"strconv"
	"strings"

	"roccc/internal/dp"
	"roccc/internal/hir"
	"roccc/internal/vm"
)

// File is one generated VHDL design unit.
type File struct {
	Name    string // file name, e.g. "fir_dp.vhd"
	Content string
}

// header opens every design unit.
const header = "library IEEE;\nuse IEEE.std_logic_1164.all;\nuse IEEE.numeric_std.all;\n\n"

// writer builds one design unit in place: a strings.Builder presized
// from the unit's op count or table size, with numbers appended through
// strconv on a stack buffer. Every method returns w, so one emitted
// line reads as one chain.
type writer struct{ strings.Builder }

// s appends text.
func (w *writer) s(text string) *writer {
	w.WriteString(text)
	return w
}

// d and d64 append v in decimal.
func (w *writer) d(v int) *writer { return w.d64(int64(v)) }

func (w *writer) d64(v int64) *writer {
	var buf [20]byte
	w.Write(strconv.AppendInt(buf[:0], v, 10))
	return w
}

// quote appends text as a Go-syntax quoted string.
func (w *writer) quote(text string) *writer {
	var buf [64]byte
	w.Write(strconv.AppendQuote(buf[:0], text))
	return w
}

// f2 appends v with two decimals.
func (w *writer) f2(v float64) *writer {
	var buf [32]byte
	w.Write(strconv.AppendFloat(buf[:0], v, 'f', 2, 64))
	return w
}

// ints appends xs as a bracketed, space-separated list.
func (w *writer) ints(xs []int) *writer {
	w.s("[")
	for i, x := range xs {
		if i > 0 {
			w.s(" ")
		}
		w.d(x)
	}
	return w.s("]")
}

// sig appends the VHDL signal for a virtual register.
func (w *writer) sig(r vm.Reg) *writer { return w.s("vr").d(int(r)) }

// slv appends the std_logic_vector type of the given width.
func (w *writer) slv(width int) *writer {
	return w.s("std_logic_vector(").d(width - 1).s(" downto 0)")
}

// EmitDatapath renders the complete data path: one component per
// hardware node plus a top-level entity that instantiates them, the
// pipeline registers and the feedback latches.
func EmitDatapath(d *dp.Datapath) []File {
	var files []File
	// ROM components first (instantiated by LUT ops).
	var romSeen []*hir.Rom
	for _, op := range d.Ops {
		if op.Instr.Op == vm.LUT && !slices.Contains(romSeen, op.Instr.Rom) {
			romSeen = append(romSeen, op.Instr.Rom)
			files = append(files, EmitRom(op.Instr.Rom))
		}
	}
	files = append(files, File{
		Name:    d.Name + "_dp.vhd",
		Content: emitTop(d),
	})
	return files
}

// operand renders a vm operand as a numeric_std expression of width n.
func (w *writer) operand(d *dp.Datapath, o vm.Operand, signed bool, n int) *writer {
	if o.IsImm {
		switch {
		case signed:
			return w.s("to_signed(").d64(o.Imm).s(", ").d(n).s(")")
		case o.Imm < 0:
			return w.s("unsigned(to_signed(").d64(o.Imm).s(", ").d(n).s("))")
		}
		return w.s("to_unsigned(").d64(o.Imm).s(", ").d(n).s(")")
	}
	srcW, srcSigned := 32, signed
	if def := d.DefOf[o.Reg]; def != nil {
		srcW, srcSigned = def.Width, def.Signed
	}
	typed := "unsigned("
	if srcSigned {
		typed = "signed("
	}
	if srcSigned != signed {
		// Re-interpret after resizing in the source domain.
		cast := "unsigned(resize("
		if signed {
			cast = "signed(resize("
		}
		return w.s(cast).s(typed).sig(o.Reg).s("), ").d(n).s("))")
	}
	if srcW != n {
		return w.s("resize(").s(typed).sig(o.Reg).s("), ").d(n).s(")")
	}
	return w.s(typed).sig(o.Reg).s(")")
}

// opExpr renders the combinational expression computing op's value.
func (w *writer) opExpr(d *dp.Datapath, op *dp.Op) {
	in := op.Instr
	n := op.Width
	s := op.Signed
	cast := "std_logic_vector("
	bin := func(infix string) *writer {
		return w.s(cast).operand(d, in.Srcs[0], s, n).s(infix).operand(d, in.Srcs[1], s, n).s(")")
	}
	switch in.Op {
	case vm.MOV, vm.LDC, vm.CVT:
		w.s(cast).operand(d, in.Srcs[0], s, n).s(")")
	case vm.ADD:
		bin(" + ")
	case vm.SUB:
		bin(" - ")
	case vm.MUL:
		w.s(cast).s("resize(").operand(d, in.Srcs[0], s, n).s(" * ").operand(d, in.Srcs[1], s, n).
			s(", ").d(n).s("))")
	case vm.DIV:
		// "All arithmetic opcodes ... with the exception of division":
		// division instantiates a divider component; the inline form is
		// emitted for simulation-only builds.
		bin(" / ").s(" -- divider core instantiation")
	case vm.REM:
		bin(" rem ")
	case vm.AND:
		bin(" and ")
	case vm.IOR:
		bin(" or ")
	case vm.XOR:
		bin(" xor ")
	case vm.NOT:
		w.s(cast).s("not ").operand(d, in.Srcs[0], s, n).s(")")
	case vm.NEG:
		w.s(cast).s("-").operand(d, in.Srcs[0], true, n).s(")")
	case vm.SHL:
		w.s(cast).s("shift_left(").operand(d, in.Srcs[0], s, n).
			s(", to_integer(").operand(d, in.Srcs[1], false, 6).s(")))")
	case vm.SHR:
		w.s(cast).s("shift_right(").operand(d, in.Srcs[0], s, n).
			s(", to_integer(").operand(d, in.Srcs[1], false, 6).s(")))")
	case vm.SEQ, vm.SNE, vm.SLT, vm.SLE:
		wCmp := cmpWidth(d, in)
		sCmp := cmpSigned(d, in)
		w.s(`"1" when `).operand(d, in.Srcs[0], sCmp, wCmp).s(" ").s(relation(in.Op)).s(" ").
			operand(d, in.Srcs[1], sCmp, wCmp).s(` else "0"`)
	case vm.MUX:
		w.s("std_logic_vector(").operand(d, in.Srcs[1], s, n).s(") when ")
		if sel := in.Srcs[0]; sel.IsImm {
			w.s(`"`).d64(sel.Imm & 1).s(`"`)
		} else {
			w.sig(sel.Reg)
		}
		w.s(` = "1" else std_logic_vector(`).operand(d, in.Srcs[2], s, n).s(")")
	default:
		w.s("(others => '0')")
	}
}

// relation is the VHDL relational operator of a comparison opcode.
func relation(op vm.Opcode) string {
	switch op {
	case vm.SEQ:
		return "="
	case vm.SNE:
		return "/="
	case vm.SLT:
		return "<"
	}
	return "<="
}

// cmpWidth picks a comparison width covering both operands plus a sign
// bit when mixing domains.
func cmpWidth(d *dp.Datapath, in *vm.Instr) int {
	w := 2
	for _, o := range in.Srcs {
		if o.IsImm {
			continue
		}
		if def := d.DefOf[o.Reg]; def != nil && def.Width+1 > w {
			w = def.Width + 1
		}
	}
	return w
}

func cmpSigned(d *dp.Datapath, in *vm.Instr) bool {
	for _, o := range in.Srcs {
		if o.IsImm {
			if o.Imm < 0 {
				return true
			}
			continue
		}
		if def := d.DefOf[o.Reg]; def != nil && def.Signed {
			return true
		}
	}
	return false
}

// emitTop renders the single-entity data path: wires for every virtual
// register, concurrent statements for combinational ops, one clocked
// process holding the pipeline registers and feedback latches, and ROM
// instantiations for LUT ops.
func emitTop(d *dp.Datapath) string {
	var b writer
	// A data path takes 120-180 bytes per op on Table 1 and ci/corpus;
	// the estimate errs high so that the text rarely outgrows it.
	b.Grow(512 + 3*len(d.Name) + 200*len(d.Ops) + 48*len(d.Nodes) + 160*len(d.Feedbacks))
	b.s(header)
	b.s("-- Generated by the ROCCC reproduction: pipelined data path ").quote(d.Name).s("\n")
	b.s("-- ").d(d.NumOps()).s(" ops, ").d(d.Stages).s(" pipeline stages, target period ").f2(d.Period).s(" ns\n\n")
	b.s("entity ").s(d.Name).s("_dp is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n")
	for _, p := range d.Inputs {
		b.s("    ").sig(p.Reg).s(" : in ").slv(p.Width).s(";  -- ").s(p.Var.Name).s("\n")
	}
	for i, p := range d.Outputs {
		sep := ";"
		if i == len(d.Outputs)-1 {
			sep = ""
		}
		b.s("    ").sig(p.Reg).s("_out : out ").slv(p.Width).s(sep).s("  -- ").s(p.Var.Name).s("\n")
	}
	b.s("  );\nend entity;\n\n")
	b.s("architecture rtl of ").s(d.Name).s("_dp is\n")

	// Wire declarations: every op's result ("every virtual register ...
	// converted into wires"); an input's wire is its port. Registered
	// ops, inputs included, also get a registered copy.
	for _, op := range d.Ops {
		if !op.Instr.Op.HasDst() {
			continue
		}
		if op.Node.Kind != dp.InputNode {
			b.s("  signal ").sig(op.Instr.Dst).s(" : ").slv(op.Width).s(";\n")
		}
		if registered(op) {
			b.s("  signal ").sig(op.Instr.Dst).s("_q : ").slv(op.Width).s(";\n")
		}
	}
	for _, fb := range d.Feedbacks {
		b.s("  signal fb_").s(fb.State.Name).s(" : ").slv(fb.State.Type.Bits).s("; -- feedback latch (LPR/SNX)\n")
	}
	b.s("begin\n")

	// Node-by-node concurrent statements, grouped with comments that
	// preserve the soft/mux/pipe structure of §4.2.2.
	nodes := slices.Clone(d.Nodes)
	slices.SortFunc(nodes, func(x, y *dp.Node) int { return x.ID - y.ID })
	for _, n := range nodes {
		if n.Kind == dp.InputNode {
			continue
		}
		b.s("\n  -- node ").d(n.ID).s(" (").s(n.Kind.String()).s(", level ").d(n.Level).s(")\n")
		for _, op := range n.Ops {
			in := op.Instr
			switch in.Op {
			case vm.SNX:
				b.s("  -- snx ").s(in.State.Name).s(" feeds the feedback latch in the clocked process\n")
			case vm.LPR:
				b.s("  ").sig(in.Dst).s(" <= fb_").s(in.State.Name).s(";\n")
			case vm.LUT:
				b.s("  u_").s(in.Rom.Name).s("_").d(op.ID).s(": entity work.rom_").s(in.Rom.Name).
					s(" port map (addr => ").sig(in.Srcs[0].Reg).s(", data => ").sig(in.Dst).s(");\n")
			default:
				b.s("  ").sig(in.Dst).s(" <= ")
				b.opExpr(d, op)
				b.s(";\n")
			}
		}
	}

	// Clocked process: pipeline registers and feedback latches (§4.2.3).
	b.s("\n  pipeline: process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n")
	for _, fb := range d.Feedbacks {
		b.s("        fb_").s(fb.State.Name).s(" <= std_logic_vector(to_signed(").d64(fb.Init).s(", ").
			d(fb.State.Type.Bits).s("));\n")
	}
	b.s("      else\n")
	for _, op := range d.Ops {
		if registered(op) {
			b.s("        ").sig(op.Instr.Dst).s("_q <= ").sig(op.Instr.Dst).s(";\n")
		}
	}
	for _, fb := range d.Feedbacks {
		src := fb.SNX.Instr.Srcs[0]
		b.s("        fb_").s(fb.State.Name).s(" <= ").sig(src.Reg).s(";\n")
	}
	b.s("      end if;\n    end if;\n  end process;\n\n")

	for _, p := range d.Outputs {
		b.s("  ").sig(p.Reg).s("_out <= ").sig(p.Reg).s(";\n")
	}
	b.s("end architecture;\n")
	return b.String()
}

// registered reports whether op's value gets a pipeline register
// (vrN_q): the one condition for both its declaration and its clocked
// assignment.
func registered(op *dp.Op) bool { return op.Latched && op.Instr.Op.HasDst() }

// EmitRom renders a ROM component plus its plain-text init file contents
// (the paper: "the compiler instantiates the lookup table as a regular
// ROM IP core unit in the VHDL code. The only thing the user needs to do
// is to edit a pure text initialization file").
func EmitRom(r *hir.Rom) File {
	var b writer
	bits := r.Elem.Bits
	// A CONTENT line is 40 bytes of text plus its address, its width and
	// a value of at most bits/3+2 characters.
	b.Grow(384 + 3*len(r.Name) + len(r.Content)*(48+bits/3))
	b.s(header)
	addrW := 1
	for 1<<uint(addrW) < r.Size {
		addrW++
	}
	b.s("entity rom_").s(r.Name).s(" is\n  port (\n    addr : in ").slv(addrW).s(";\n    data : out ").slv(bits).
		s("\n  );\nend entity;\n\n")
	b.s("architecture rtl of rom_").s(r.Name).s(" is\n")
	b.s("  type rom_t is array (0 to ").d(r.Size - 1).s(") of ").slv(bits).s(";\n")
	b.s("  constant CONTENT : rom_t := (\n")
	for i, v := range r.Content {
		sep := ",\n"
		if i == len(r.Content)-1 {
			sep = "\n"
		}
		b.s("    ").d(i).s(" => std_logic_vector(to_signed(").d64(v).s(", ").d(bits).s("))").s(sep)
	}
	b.s("  );\nbegin\n  data <= CONTENT(to_integer(unsigned(addr)));\nend architecture;\n")
	return File{Name: "rom_" + r.Name + ".vhd", Content: b.String()}
}

// RomInitFile renders the plain-text initialization file for a ROM.
func RomInitFile(r *hir.Rom) File {
	var b writer
	b.Grow(96 + len(r.Name) + len(r.Content)*(3+r.Elem.Bits/3))
	b.s("-- init file for lookup table ").s(r.Name).s(": ").d(r.Size).s(" x ").d(r.Elem.Bits).s(" bits\n")
	for _, v := range r.Content {
		b.d64(v).s("\n")
	}
	return File{Name: r.Name + ".init", Content: b.String()}
}
