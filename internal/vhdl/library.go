package vhdl

import (
	"roccc/internal/hir"
	"roccc/internal/smartbuf"
)

// library.go renders the "pre-existing parameterized FSMs in a VHDL
// library" of §4.1: smart buffers, address generators and the top-level
// controller, plus the system wrapper that wires them to the data path
// (the execution model of Fig. 2).

// EmitSmartBuffer renders a smart buffer: a shift-register (1-D) or
// line-buffer (2-D) structure with window-export logic.
func EmitSmartBuffer(name string, cfg smartbuf.Config) File {
	var b writer
	// About 900 bytes of fixed text, a port and a wire per tap and a
	// line per bus element.
	b.Grow(1024 + 2*len(name) + 64*len(cfg.Taps) + 64*cfg.BusElems)
	b.s(header)
	depth := cfg.StorageBits() / cfg.ElemBits
	b.s("-- smart buffer: window ").ints(cfg.Extent).s(", stride ").ints(cfg.Stride).s(", ").d(len(cfg.Taps)).
		s(" taps, ").d(depth).s(" elements retained\n")
	b.s("entity ").s(name).s(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n")
	b.s("    din : in ").slv(cfg.ElemBits * cfg.BusElems).s(";\n")
	b.s("    din_valid : in std_logic;\n    window_ready : out std_logic;\n")
	for i := range cfg.Taps {
		sep := ";\n"
		if i == len(cfg.Taps)-1 {
			sep = "\n"
		}
		b.s("    tap").d(i).s(" : out ").slv(cfg.ElemBits).s(sep)
	}
	b.s("  );\nend entity;\n\n")
	b.s("architecture rtl of ").s(name).s(" is\n")
	b.s("  type line_t is array (0 to ").d(depth - 1).s(") of ").slv(cfg.ElemBits).s(";\n")
	b.s("  signal ring : line_t;\n  signal fill : integer range 0 to 65535;\nbegin\n")
	b.s("  shift: process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        fill <= 0;\n      elsif din_valid = '1' then\n")
	if depth > cfg.BusElems {
		b.s("        ring(").d(cfg.BusElems).s(" to ").d(depth - 1).s(") <= ring(0 to ").d(depth - 1 - cfg.BusElems).s(");\n")
	}
	for i := 0; i < cfg.BusElems; i++ {
		b.s("        ring(").d(i).s(") <= din(").d((i+1)*cfg.ElemBits - 1).s(" downto ").d(i * cfg.ElemBits).s(");\n")
	}
	b.s("        fill <= fill + ").d(cfg.BusElems).s(";\n")
	b.s("      end if;\n    end if;\n  end process;\n\n")
	b.s("  window_ready <= '1' when fill >= ").d(depth).s(" else '0';\n")
	// Tap wiring: relative positions inside the retained region.
	for i, tap := range cfg.Taps {
		var idx int
		if len(cfg.Extent) == 1 {
			idx = int(tap[0]) - cfg.MinOff[0]
		} else {
			idx = (int(tap[0])-cfg.MinOff[0])*cfg.ArrayDims[1] + int(tap[1]) - cfg.MinOff[1]
		}
		// Newest element is ring(0); taps count back from the window end.
		pos := depth - 1 - idx
		if pos < 0 {
			pos = 0
		}
		b.s("  tap").d(i).s(" <= ring(").d(pos).s(");\n")
	}
	b.s("end architecture;\n")
	return File{Name: name + ".vhd", Content: b.String()}
}

// EmitAddressGenerator renders a sequential read address generator FSM.
func EmitAddressGenerator(name string, total, busElems, addrBits int) File {
	var b writer
	b.Grow(768 + 2*len(name)) // about 750 bytes of fixed text
	b.s(header)
	b.s("-- read address generator: ").d(total).s(" elements, ").d(busElems).s(" per cycle\n")
	b.s("entity ").s(name).s(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n    enable : in std_logic;\n    addr : out ").
		slv(addrBits).s(";\n    valid : out std_logic;\n    done : out std_logic\n  );\nend entity;\n\n")
	b.s("architecture fsm of ").s(name).s(" is\n")
	b.s("  signal pos : unsigned(").d(addrBits - 1).s(" downto 0);\nbegin\n")
	b.s("  step: process(clk)\n  begin\n    if rising_edge(clk) then\n      if rst = '1' then\n        pos <= (others => '0');\n")
	b.s("      elsif enable = '1' and pos < ").d(total).s(" then\n        pos <= pos + ").d(busElems).s(";\n")
	b.s("      end if;\n    end if;\n  end process;\n")
	b.s("  addr <= std_logic_vector(pos);\n")
	b.s("  valid <= '1' when pos < ").d(total).s(" else '0';\n")
	b.s("  done <= '1' when pos >= ").d(total).s(" else '0';\n")
	b.s("end architecture;\n")
	return File{Name: name + ".vhd", Content: b.String()}
}

// EmitController renders the higher-level controller FSM (idle / fill /
// stream / drain / done) that sequences the address generators and the
// data path.
func EmitController(name string, totalIters, latency int) File {
	var b writer
	b.Grow(1280 + 2*len(name)) // about 1250 bytes of fixed text
	b.s(header)
	b.s("-- higher-level controller: ").d(totalIters).s(" iterations, data-path latency ").d(latency).s("\n")
	b.s("entity ").s(name).s(" is\n  port (\n    clk : in std_logic;\n    rst : in std_logic;\n    window_ready : in std_logic;\n    feed : out std_logic;\n    done : out std_logic\n  );\nend entity;\n\n")
	b.s("architecture fsm of ").s(name).s(" is\n")
	b.s("  type state_t is (S_IDLE, S_FILL, S_STREAM, S_DRAIN, S_DONE);\n  signal state : state_t;\n  signal fed, collected : integer range 0 to 1048575;\nbegin\n")
	b.s(`  fsm: process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' then
        state <= S_IDLE;
        fed <= 0;
        collected <= 0;
      else
        case state is
          when S_IDLE => state <= S_FILL;
          when S_FILL | S_STREAM =>
            if window_ready = '1' then
              fed <= fed + 1;
              state <= S_STREAM;
            end if;
`)
	b.s("            if fed >= ").d(totalIters).s(" then state <= S_DRAIN; end if;\n")
	b.s("          when S_DRAIN =>\n            if collected >= ").d(totalIters).s(" then state <= S_DONE; end if;\n")
	b.s("          when S_DONE => null;\n        end case;\n      end if;\n    end if;\n  end process;\n")
	b.s("  feed <= '1' when (state = S_FILL or state = S_STREAM) and window_ready = '1' and fed < ").d(totalIters).s(" else '0';\n")
	b.s("  done <= '1' when state = S_DONE else '0';\nend architecture;\n")
	return File{Name: name + ".vhd", Content: b.String()}
}

// EmitKernel renders the full file set for a compiled kernel: data path,
// ROM cores + init files, one smart buffer per read window, address
// generators and the controller.
func EmitKernel(k *hir.Kernel, files []File, cfgs []smartbuf.Config, latency int) []File {
	for i, cfg := range cfgs {
		arr := k.Reads[i].Arr
		files = append(files, EmitSmartBuffer(k.Name+"_smartbuf_"+arr.Name, cfg))
		addrBits := 1
		for 1<<uint(addrBits) < arr.Len() {
			addrBits++
		}
		files = append(files, EmitAddressGenerator(k.Name+"_addrgen_"+arr.Name, arr.Len(), cfg.BusElems, addrBits))
	}
	total := int(k.Nest.TotalIterations())
	if total == 0 {
		total = 1
	}
	files = append(files, EmitController(k.Name+"_ctrl", total, latency))
	for _, r := range k.Roms {
		files = append(files, RomInitFile(r))
	}
	return files
}
