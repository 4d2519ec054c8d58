package roccc

import (
	"fmt"
	"os/exec"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/smartbuf"
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

// TestLibraryLinksOnlyCompiler pins the layering: importing the library
// links the compiler, the simulators and the hardware model, and none
// of the evaluation, the service or its network stack; the load
// generator links the service but not the evaluation.
func TestLibraryLinksOnlyCompiler(t *testing.T) {
	for _, tc := range []struct {
		pkg, needs string
		bad        []string
	}{
		{".", "roccc/internal/core", []string{
			"net/http",
			"roccc/internal/bench", "roccc/internal/exp", "roccc/internal/fleet",
			"roccc/internal/ip", "roccc/internal/load", "roccc/internal/serve",
		}},
		{"./cmd/rocccload", "roccc/internal/load", []string{
			"roccc/internal/exp", "roccc/internal/ip",
		}},
	} {
		out, err := exec.Command("go", "list", "-deps", tc.pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", tc.pkg, err)
		}
		deps := strings.Fields(string(out))
		if !slices.Contains(deps, tc.needs) {
			t.Fatalf("go list -deps %s does not list %s:\n%s", tc.pkg, tc.needs, out)
		}
		for _, bad := range tc.bad {
			if slices.Contains(deps, bad) {
				t.Errorf("%s depends on %s", tc.pkg, bad)
			}
		}
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

// TestBufferConfig pins BufferConfig to the kernel's read windows: a
// window it has gets ConfigFor's configuration, and an index past
// either end, or any index on a combinational kernel, is an error that
// names the index and the window count.
func TestBufferConfig(t *testing.T) {
	k := bench.FIR()
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := BufferConfig(res, 0, k.BusElems)
	if err != nil {
		t.Fatal(err)
	}
	want, err := smartbuf.ConfigFor(res.Kernel.Reads[0], &res.Kernel.Nest, k.BusElems)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BufferConfig(fir, 0) = %+v, ConfigFor gives %+v", got, want)
	}
	n := len(res.Kernel.Reads)
	for _, i := range []int{-1, n} {
		_, err := BufferConfig(res, i, k.BusElems)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("window %d (it has %d)", i, n)) {
			t.Errorf("BufferConfig(fir, %d) error = %v, want one naming window %d of %d", i, err, i, n)
		}
	}
	comb, err := bench.UDiv().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if comb.Kernel.Streams() {
		t.Fatal("udiv streams; pick a combinational Table 1 row")
	}
	if _, err := BufferConfig(comb, 0, 1); err == nil || !strings.Contains(err.Error(), "window 0 (it has 0)") {
		t.Errorf("BufferConfig(udiv, 0) error = %v, want one naming window 0 of 0", err)
	}
}

// firArtifacts is what the public flow derives from one compiled FIR:
// its VHDL, its synthesis report and a system run's output.
type firArtifacts struct {
	files []VHDLFile
	rep   *Report
	out   []int64
}

func deriveFIR(res *Result, bus int) (firArtifacts, error) {
	var a firArtifacts
	files, err := GenerateVHDL(res)
	if err != nil {
		return a, err
	}
	a.files = files
	a.rep = Synthesize(res, bus)
	sys, err := NewSystem(res, SystemConfig{BusElems: bus})
	if err != nil {
		return a, err
	}
	in := make([]int64, res.Kernel.Reads[0].Arr.Len())
	for i := range in {
		in[i] = int64(i*37%255) - 128
	}
	if err := sys.LoadInput(res.Kernel.Reads[0].Arr.Name, in); err != nil {
		return a, err
	}
	if _, err := sys.Run(); err != nil {
		return a, err
	}
	a.out, err = sys.Output(res.Kernel.Writes[0].Arr.Name)
	return a, err
}

// TestSharedConfigsConcurrent runs the three consumers of a kernel's
// cached buffer configurations from 8 goroutines on one freshly
// compiled FIR (run it under -race): each must derive what a serial run
// on another compile derives.
func TestSharedConfigsConcurrent(t *testing.T) {
	k := bench.FIR()
	ref, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := deriveFIR(ref, k.BusElems)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := deriveFIR(res, k.BusElems)
			switch {
			case err != nil:
				t.Errorf("goroutine %d: %v", g, err)
			case !slices.Equal(got.files, want.files):
				t.Errorf("goroutine %d: VHDL differs from the serial run", g)
			case !reflect.DeepEqual(got.rep, want.rep):
				t.Errorf("goroutine %d: report %+v, serial run %+v", g, got.rep, want.rep)
			case !slices.Equal(got.out, want.out):
				t.Errorf("goroutine %d: outputs differ from the serial run", g)
			}
		}()
	}
	wg.Wait()
}
