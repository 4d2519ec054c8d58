package roccc

import (
	"strings"
	"testing"

	"roccc/internal/bench"
)

const firC = `
int A[21];
int C[17];
void fir() {
	int i;
	for (i = 0; i < 17; i = i + 1) {
		C[i] = 3*A[i] + 5*A[i+1] + 7*A[i+2] + 9*A[i+3] - A[i+4];
	}
}
`

func TestPublicCompile(t *testing.T) {
	res, err := Compile(firC, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Datapath == nil || res.Kernel == nil {
		t.Fatal("incomplete result")
	}
	if len(res.Datapath.Inputs) != 5 || len(res.Datapath.Outputs) != 1 {
		t.Errorf("ports: %d in, %d out", len(res.Datapath.Inputs), len(res.Datapath.Outputs))
	}
}

func TestPublicVHDL(t *testing.T) {
	res, err := Compile(firC, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files, err := GenerateVHDL(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("files = %d, want >= 4 (dp, buffer, addrgen, controller)", len(files))
	}
	names := map[string]bool{}
	for _, f := range files {
		names[f.Name] = true
		if !strings.Contains(f.Content, "entity") {
			t.Errorf("%s has no entity", f.Name)
		}
	}
	if !names["fir_dp.vhd"] {
		t.Error("missing fir_dp.vhd")
	}
}

func TestPublicSynthesize(t *testing.T) {
	res, err := Compile(firC, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := Synthesize(res, 1)
	if rep.Slices <= 0 || rep.ClockMHz <= 0 {
		t.Errorf("report: %d slices, %.0f MHz", rep.Slices, rep.ClockMHz)
	}
}

// TestPublicSystem runs the FIR through the public API on the one fast
// path (the zero SystemConfig) and on its reference
// (SystemConfig{Serial: true}): both must compute the filter on the same
// cycle count, the default System covering every cycle off its static
// schedule, and a default pool must reject the Serial System.
func TestPublicSystem(t *testing.T) {
	res, err := Compile(firC, "fir", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	in := make([]int64, 21)
	for i := range in {
		in[i] = int64(i)
	}
	var systems [2]*System
	for i, cfg := range []SystemConfig{{BusElems: 1}, {BusElems: 1, Serial: true}} {
		sys, err := NewSystem(res, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.LoadInput("A", in); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		out, err := sys.Output("C")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 17; i++ {
			want := 3*in[i] + 5*in[i+1] + 7*in[i+2] + 9*in[i+3] - in[i+4]
			if out[i] != want {
				t.Errorf("%+v: C[%d] = %d, want %d", cfg, i, out[i], want)
			}
		}
		systems[i] = sys
	}
	fast, ref := systems[0], systems[1]
	if fast.Cycles() != ref.Cycles() || fast.BatchedCycles() != fast.Cycles() || ref.BatchedCycles() != 0 {
		t.Fatalf("default System: %d cycles, %d batched; Serial System: %d cycles, %d batched",
			fast.Cycles(), fast.BatchedCycles(), ref.Cycles(), ref.BatchedCycles())
	}
	pool, err := NewSystemPool(res, SystemConfig{BusElems: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Put(ref)
	if st := pool.Stats(); st.Rejected != 1 || st.Puts != 0 {
		t.Fatalf("a default pool took the Serial System: %+v", st)
	}
}

func TestPublicTable1(t *testing.T) {
	out := Table1()
	if !strings.Contains(out, "bit_correlator") || !strings.Contains(out, "geometric mean") {
		t.Errorf("table output:\n%s", out)
	}
}

// TestGenerateVHDLStable compiles every Table 1 kernel 20 times and
// requires byte-identical VHDL: no compiler pass may let map iteration
// order reach signal or register numbering.
func TestGenerateVHDLStable(t *testing.T) {
	for _, k := range bench.All() {
		var first []VHDLFile
		for i := 0; i < 20; i++ {
			res, err := k.Compile()
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			files, err := GenerateVHDL(res)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			if i == 0 {
				first = files
				continue
			}
			if len(files) != len(first) {
				t.Fatalf("%s: compile %d emitted %d files, compile 0 emitted %d", k.Name, i, len(files), len(first))
			}
			for j := range files {
				if files[j] != first[j] {
					t.Fatalf("%s: compile %d emitted a different %s than compile 0", k.Name, i, files[j].Name)
				}
			}
		}
	}
}
