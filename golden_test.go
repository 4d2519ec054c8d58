package roccc

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roccc/internal/bench"
	"roccc/internal/dp"
	"roccc/internal/exp"
	"roccc/internal/vhdl"
)

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the current emitter")

// goldenPath holds one "<kernel> <sha256>" line per pinned kernel.
const goldenPath = "testdata/vhdl_golden.txt"

// goldenKernel is one kernel whose emitted VHDL is pinned.
type goldenKernel struct {
	name    string
	compile func() (*Result, error)
}

// goldenKernels are the nine Table 1 rows with their row options, the
// Fig. 3/4/5 sources, the 4096-iteration FIR and the ci/corpus
// kernels.
func goldenKernels(t *testing.T) []goldenKernel {
	var ks []goldenKernel
	for _, k := range bench.All() {
		ks = append(ks, goldenKernel{k.Name, k.Compile})
	}
	source := func(name, src, fn string) goldenKernel {
		return goldenKernel{name, func() (*Result, error) { return Compile(src, fn, DefaultOptions()) }}
	}
	ks = append(ks,
		source("fig3_fir", exp.Fig3Source, "fir"),
		source("fig4_accum", exp.Fig4Source, "accum"),
		source("fig5_if_else", exp.Fig5Source, "if_else"),
		source("fir_4096", exp.LongFIRSource, "fir"),
	)
	corpus, err := filepath.Glob("ci/corpus/*.c")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no ci/corpus kernels (%v)", err)
	}
	for _, path := range corpus {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, source(strings.TrimSuffix(filepath.Base(path), ".c"), string(src), "k"))
	}
	return ks
}

// vhdlHash is the sha256 of every file's name and content, in emission
// order, each followed by a NUL byte.
func vhdlHash(files []VHDLFile) string {
	h := sha256.New()
	for _, f := range files {
		h.Write([]byte(f.Name))
		h.Write([]byte{0})
		h.Write([]byte(f.Content))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateVHDLGolden pins the bytes GenerateVHDL emits for every
// pinned kernel, and structurally verifies each file set it hashes
// (vhdl.VerifyKernelFiles for streaming kernels, VerifyDatapathFiles
// for the others). A change to the emitter that is meant to alter the text
// regenerates the file with
//
//	go test -run TestGenerateVHDLGolden -update .
//
// and the diff of testdata/vhdl_golden.txt names the kernels it touched.
func TestGenerateVHDLGolden(t *testing.T) {
	var got strings.Builder
	for _, k := range goldenKernels(t) {
		res, err := k.compile()
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		files, err := GenerateVHDL(res)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		var vs []dp.Violation
		if res.Kernel.Streams() {
			vs = vhdl.VerifyKernelFiles(res.Kernel, res.Datapath, files)
		} else {
			vs = vhdl.VerifyDatapathFiles(res.Datapath, files)
		}
		for _, v := range vs {
			t.Errorf("%s: %v", k.name, v)
		}
		got.WriteString(k.name + " " + vhdlHash(files) + "\n")
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hash, _ := strings.Cut(line, " ")
		want[name] = hash
	}
	lines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(lines) != len(want) {
		t.Errorf("%d kernels emitted, %s pins %d", len(lines), goldenPath, len(want))
	}
	for _, line := range lines {
		name, hash, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: not pinned in %s", name, goldenPath)
		} else if hash != w {
			t.Errorf("%s: VHDL sha256 %s, pinned %s", name, hash, w)
		}
	}
}
