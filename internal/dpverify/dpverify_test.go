package dpverify_test

import (
	"testing"

	"roccc/internal/bench"
	"roccc/internal/dpverify"
)

// TestTable1KernelsVerifyClean is the acceptance gate behind
// cmd/rocccvet: every Table 1 kernel, compiled as the paper compiled
// it, must satisfy every static invariant. A failure here means the
// compiler produced an artifact that breaks one of its own documented
// contracts.
func TestTable1KernelsVerifyClean(t *testing.T) {
	for _, k := range bench.All() {
		res, err := k.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		vs, err := dpverify.VerifyResult(res, k.BusElems, k.Scalars)
		if err != nil {
			t.Errorf("%s: %v", k.Name, err)
			continue
		}
		for _, v := range vs {
			t.Errorf("%s: %s", k.Name, v)
		}
	}
}
