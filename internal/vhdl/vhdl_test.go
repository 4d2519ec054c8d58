package vhdl

import (
	"strings"
	"testing"

	"roccc/internal/core"
	"roccc/internal/dp"
	"roccc/internal/smartbuf"
)

const firSource = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

func TestEmitDatapathFIR(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := EmitDatapath(res.Datapath)
	if len(files) != 1 {
		t.Fatalf("files = %d, want 1", len(files))
	}
	v := files[0].Content
	for _, want := range []string{
		"entity fir_dp is",
		"library IEEE",
		"use IEEE.numeric_std.all",
		"architecture rtl of fir_dp",
		"pipeline: process(clk)",
		"rising_edge(clk)",
		"end architecture;",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("missing %q in generated VHDL", want)
		}
	}
	// 5 inputs, 1 output port.
	if n := strings.Count(v, ": in std_logic_vector"); n != 5 {
		t.Errorf("input ports = %d, want 5", n)
	}
	if n := strings.Count(v, ": out std_logic_vector"); n != 1 {
		t.Errorf("output ports = %d, want 1", n)
	}
	// Multiplications present.
	if !strings.Contains(v, "*") {
		t.Error("no multiplier in FIR data path")
	}
}

func TestEmitAccumulatorFeedback(t *testing.T) {
	src := `
int A[32];
int sum;
void accum() {
	int i;
	sum = 0;
	for (i = 0; i < 32; i++) { sum = sum + A[i]; }
}
`
	res, err := core.CompileSource(src, "accum", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := EmitDatapath(res.Datapath)[0].Content
	if !strings.Contains(v, "fb_sum") {
		t.Error("missing feedback latch signal fb_sum")
	}
	if !strings.Contains(v, "rst = '1'") {
		t.Error("missing latch reset")
	}
}

func TestEmitRomComponent(t *testing.T) {
	src := `
const int16 tab[8] = {1, -2, 3, -4, 5, -6, 7, -8};
void f(uint3 i, int16* o) { *o = tab[i]; }
`
	res, err := core.CompileSource(src, "f", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := EmitDatapath(res.Datapath)
	if len(files) != 2 {
		t.Fatalf("files = %d, want 2 (rom + dp)", len(files))
	}
	rom := files[0].Content
	for _, want := range []string{"entity rom_tab", "constant CONTENT", "to_signed(-8, 16)"} {
		if !strings.Contains(rom, want) {
			t.Errorf("rom missing %q", want)
		}
	}
	top := files[1].Content
	if !strings.Contains(top, "entity work.rom_tab") {
		t.Error("data path does not instantiate the ROM component")
	}
	// Init file.
	init := RomInitFile(res.Kernel.Roms[0])
	if !strings.Contains(init.Content, "-8") {
		t.Errorf("init file content:\n%s", init.Content)
	}
}

func TestEmitMuxBranch(t *testing.T) {
	src := `
void f(int a, int b, int* o) {
	int r;
	if (a < b) { r = a; } else { r = b; }
	*o = r;
}
`
	res, err := core.CompileSource(src, "f", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := EmitDatapath(res.Datapath)[0].Content
	if !strings.Contains(v, "when") || !strings.Contains(v, "else") {
		t.Error("missing mux select statement")
	}
	if !strings.Contains(v, "(mux, level") {
		t.Error("missing mux node comment")
	}
}

func TestEmitSmartBufferLibrary(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := smartbuf.ConfigFor(res.Kernel.Reads[0], &res.Kernel.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := EmitSmartBuffer("fir_smartbuf_A", cfg)
	for _, want := range []string{"entity fir_smartbuf_A", "window_ready", "tap4", "ring"} {
		if !strings.Contains(f.Content, want) {
			t.Errorf("smart buffer missing %q", want)
		}
	}
}

func TestEmitControllerAndAddrGen(t *testing.T) {
	c := EmitController("fir_ctrl", 17, 3)
	for _, want := range []string{"S_IDLE", "S_FILL", "S_STREAM", "S_DRAIN", "S_DONE", "feed"} {
		if !strings.Contains(c.Content, want) {
			t.Errorf("controller missing %q", want)
		}
	}
	a := EmitAddressGenerator("fir_addrgen_A", 21, 1, 5)
	for _, want := range []string{"entity fir_addrgen_A", "pos + 1", "done"} {
		if !strings.Contains(a.Content, want) {
			t.Errorf("addrgen missing %q", want)
		}
	}
}

func TestEmitKernelFileSet(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := EmitDatapath(res.Datapath)
	cfg, err := smartbuf.ConfigFor(res.Kernel.Reads[0], &res.Kernel.Nest, 1)
	if err != nil {
		t.Fatal(err)
	}
	files = EmitKernel(res.Kernel, files, []smartbuf.Config{cfg}, res.Datapath.Latency())
	names := map[string]bool{}
	for _, f := range files {
		names[f.Name] = true
	}
	for _, want := range []string{"fir_dp.vhd", "fir_smartbuf_A.vhd", "fir_addrgen_A.vhd", "fir_ctrl.vhd"} {
		if !names[want] {
			t.Errorf("missing generated file %s (have %v)", want, names)
		}
	}
}

func TestBalancedParens(t *testing.T) {
	// Structural sanity on every emitted expression: parentheses and
	// if/end if balance.
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := EmitDatapath(res.Datapath)[0].Content
	if strings.Count(v, "(") != strings.Count(v, ")") {
		t.Error("unbalanced parentheses")
	}
	if strings.Count(v, "process") != 2 { // declaration + end process
		t.Errorf("process count = %d", strings.Count(v, "process"))
	}
}

// TestVerifyDeclared checks the vhdl/declared invariant. The FIR's file
// set is clean; with the declaration of a registered input's vrN_q
// removed, as an emitter that declared registers only for non-input
// ops wrote it, the check names that register.
func TestVerifyDeclared(t *testing.T) {
	res, err := core.CompileSource(firSource, "fir", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := res.Datapath
	files := EmitDatapath(d)
	if vs := VerifyDatapathFiles(d, files); len(vs) != 0 {
		t.Fatalf("emitted FIR violates %v", vs)
	}
	reg := ""
	for _, op := range d.Ops {
		if op.Node.Kind == dp.InputNode && registered(op) {
			reg = sigName(op.Instr.Dst) + "_q"
			break
		}
	}
	if reg == "" {
		t.Fatal("the FIR has no registered input")
	}
	top := files[len(files)-1].Content
	decl := strings.Index(top, "  signal "+reg+" : ")
	if decl < 0 {
		t.Fatalf("%s is not declared in\n%s", reg, top)
	}
	end := decl + strings.IndexByte(top[decl:], '\n') + 1
	broken := []File{{Name: files[len(files)-1].Name, Content: top[:decl] + top[end:]}}
	vs := VerifyDatapathFiles(d, broken)
	if len(vs) != 1 || vs[0].Invariant != "vhdl/declared" || !strings.Contains(vs[0].Detail, "assigns "+reg+",") {
		t.Fatalf("with %s undeclared, violations = %v, want one vhdl/declared naming it", reg, vs)
	}
}
