package accel

// BufferSpec describes one on-chip buffer's minimal per-cycle bandwidth
// requirement (Table 1). Width is in bytes/cycle.
type BufferSpec struct {
	// Name is the buffer identifier (DB, SB, LB, OB, PB, ZSB).
	Name string
	// WidthBytesPerCycle is the minimal supply width.
	WidthBytesPerCycle int64
	// Bytes is the configured capacity.
	Bytes int64
	// Rule documents the Table 1 formula the width came from.
	Rule string
}

// offChipBytesPerCycle returns the DRAM bandwidth expressed per fabric
// cycle, the "max off-chip BW" operand of Table 1.
func (c Config) offChipBytesPerCycle() int64 {
	return max(int64(c.OffChipBW/c.Freq()), 1)
}

// dpeWeightDemand returns the DPE array's demanded on-chip weight
// bandwidth in bytes/cycle: KP rows each consuming DPEWidth int8 weights.
func (c Config) dpeWeightDemand() int64 { return int64(c.KP * c.DPEWidth) }

// dpeIActDemand returns the demanded iAct bandwidth in bytes/cycle:
// CP columns each consuming DPEWidth int8 activations.
func (c Config) dpeIActDemand() int64 { return int64(c.CP * c.DPEWidth) }

// BufferSpecs evaluates Table 1 ("Bandwidth requirement of on-chip
// buffers") for the configuration, using R = S = 3 (the DPE's native
// kernel slice) and int8 iActs / int32 oActs.
func (c Config) BufferSpecs() []BufferSpec {
	off := c.offChipBytesPerCycle()
	specs := []BufferSpec{
		{
			Name:               "DB",
			WidthBytesPerCycle: lcm(off, c.dpeWeightDemand()),
			Bytes:              c.DBBytes,
			Rule:               "LCM(max off-chip BW, DPE array demanded on-chip BW)",
		},
		{
			Name:               "SB",
			WidthBytesPerCycle: lcm(off, int64(c.CP*3*3)),
			Bytes:              c.SBBytes,
			Rule:               "LCM(max off-chip BW, CP x R x S x iActs DataWidth)",
		},
		{
			Name:               "LB",
			WidthBytesPerCycle: c.dpeIActDemand(),
			Bytes:              c.LBBytes,
			Rule:               "DPE Array demanded on-chip BW",
		},
		{
			Name:               "OB",
			WidthBytesPerCycle: int64(c.KP * 4),
			Bytes:              c.OBBytes,
			Rule:               "KP x oAct DataWidth",
		},
		{
			Name:               "ZSB",
			WidthBytesPerCycle: int64(c.KP * 4),
			Bytes:              c.ZSBBytes,
			Rule:               "KP x scale DataWidth",
		},
	}
	if c.HasPB() {
		specs = append(specs, BufferSpec{
			Name:               "PB",
			WidthBytesPerCycle: lcm(off, c.dpeWeightDemand()),
			Bytes:              c.PBBytes,
			Rule:               "LCM(max off-chip BW, DPE Array demanded on-chip BW)",
		})
	}
	return specs
}

// TotalBufferBytes sums all configured on-chip storage.
func (c Config) TotalBufferBytes() int64 {
	return c.PBBytes + c.DBBytes + c.SBBytes + c.LBBytes + c.OBBytes + c.ZSBBytes
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a / gcd(a, b) * b
}
