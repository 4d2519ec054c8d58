//go:build !dpverify

package netlist

import (
	"roccc/internal/dp"
	"roccc/internal/hir"
)

// sysVerifyHook and schedVerifyHook are no-ops in default builds;
// `-tags dpverify` swaps in the verifying hooks (verify_hook_on.go).
func sysVerifyHook(p *sysPlan, k *hir.Kernel, d *dp.Datapath) {}

func schedVerifyHook(p *sysPlan) {}
