package accel

// Resources estimates the FPGA resource footprint of a configuration,
// reproducing the structure of Table 2. The estimator is an affine model
// calibrated against the paper's ZCU104 and Alveo U50 synthesis results;
// exact LUT counts are synthesis-tool-specific, but the drivers (DSPs
// scale with the DPE array, URAM/BRAM with the buffer split) are
// architectural and carry over.
type Resources struct {
	// LUT and Register are lookup-table and flip-flop counts.
	LUT, Register int
	// BRAM is the number of 36 Kb block RAMs; URAM the number of 288 Kb
	// UltraRAMs.
	BRAM, URAM int
	// DSP is the DSP48 slice count.
	DSP int
	// PeakOpsPerCycle and GFLOPS echo the throughput rows of Table 2.
	PeakOpsPerCycle int
	GFLOPS          float64
}

// uramKB is the capacity of one UltraRAM block (288 Kb = 36 KB).
const uramKB = 36

// bramKB is the capacity of one 36 Kb BRAM (4.5 KB).
const bramKB = 4.5

// EstimateResources evaluates the resource model for c.
//
// Deep buffers (DB, SB, PB) map to URAM; shallow, wide ones (LB, OB, ZSB
// and SB's alignment slice) map to BRAM, matching Table 3's split. Each
// DPE costs 9 multipliers plus an adder tree (~1 extra DSP) and control
// logic; per-row reduction adder trees add CP-proportional LUTs.
func EstimateResources(c Config) Resources {
	dpes := c.KP * c.CP
	// URAM-backed deep buffers.
	uramBytes := c.DBBytes + c.PBBytes + max(0, c.SBBytes-(8<<10))
	uram := int((uramBytes + uramKB<<10 - 1) / (uramKB << 10))
	// BRAM-backed shallow buffers plus distribution FIFOs.
	bramBytes := c.LBBytes + c.OBBytes + c.ZSBBytes + min(c.SBBytes, 8<<10)
	bram := int(float64(bramBytes)/(bramKB*1024)) + 2*c.KP + 3*c.CP
	// One DPE = 9 int8 multipliers + adder tree; ~10 DSPs with packing.
	dsp := dpes*(c.DPEWidth+1) + c.KP // row reduction trees
	lut := 360*dpes + 40*c.KP*c.DPEWidth + int(c.TotalBufferBytes()>>10)*2 + 6000
	reg := 640*dpes + 60*c.KP*c.DPEWidth + int(c.TotalBufferBytes()>>10)*3 + 10000
	return Resources{
		LUT:             lut,
		Register:        reg,
		BRAM:            bram,
		URAM:            uram,
		DSP:             dsp,
		PeakOpsPerCycle: c.PeakOpsPerCycle(),
		GFLOPS:          c.PeakFLOPS() / 1e9,
	}
}
