package core

import (
	"fmt"

	"sushi/internal/accel"
	"sushi/internal/baseline"
)

// Table1 regenerates the buffer bandwidth-requirement table (Table 1).
func (s setting) Table1() (*Result, error) {
	cfg := s.board
	res := &Result{
		Name:   "table1",
		Title:  "Bandwidth requirement of on-chip buffers (" + cfg.Name + ")",
		Header: []string{"buffer", "min width (B/cycle)", "capacity (KB)", "rule"},
	}
	for _, s := range cfg.BufferSpecs() {
		res.Rows = append(res.Rows, []string{
			s.Name,
			fmt.Sprintf("%d", s.WidthBytesPerCycle),
			fmt.Sprintf("%d", s.Bytes>>10),
			s.Rule,
		})
	}
	return res, nil
}

// Table2 regenerates the resource comparison (Table 2).
func (s setting) Table2() (*Result, error) {
	res := &Result{
		Name:  "table2",
		Title: "FPGA resource comparison (estimated; paper values in the notes)",
		Header: []string{"design", "LUT", "Register", "BRAM", "URAM", "DSP",
			"PeakOps/cycle", "GFLOPS@100MHz"},
	}
	for _, cfg := range []accel.Config{s.board.WithoutPB(), s.board, s.scaleUp.WithoutPB(), s.scaleUp} {
		name := "SushiAccel " + cfg.Name
		if cfg.PBBytes > 0 {
			name += " w/ PB"
		}
		e := accel.EstimateResources(cfg)
		res.Rows = append(res.Rows, []string{
			name,
			fmt.Sprintf("%d", e.LUT),
			fmt.Sprintf("%d", e.Register),
			fmt.Sprintf("%d", e.BRAM),
			fmt.Sprintf("%d", e.URAM),
			fmt.Sprintf("%d", e.DSP),
			fmt.Sprintf("%d", e.PeakOpsPerCycle),
			f1(e.GFLOPS),
		})
	}
	dpu := baseline.XilinxDPU()
	res.Rows = append(res.Rows, []string{
		"Xilinx DPU DPUCZDX8G", "41640*", "69180*", "0*", "60*", "438*",
		fmt.Sprintf("%d", dpu.PeakOpsPerCycle()), f1(float64(dpu.PeakOpsPerCycle()) * dpu.FreqMHz / 1e3),
	})
	e := accel.EstimateResources(s.board)
	res.Metrics = map[string]float64{
		"lut": float64(e.LUT), "ff": float64(e.Register), "bram": float64(e.BRAM), "uram": float64(e.URAM), "dsp": float64(e.DSP),
	}
	paper := func(key string) string { return published("", key).band() }
	res.Notes = append(res.Notes,
		"* DPU row reproduces the paper's reported synthesis numbers (no estimator for third-party IP)",
		fmt.Sprintf("paper ZCU104 w/ PB: %s LUT, %s FF, %s BRAM, %s URAM, %s DSP",
			paper("lut"), paper("ff"), paper("bram"), paper("uram"), paper("dsp")))
	return res, nil
}

// Table3 regenerates the buffer-configuration split (Table 3).
func (s setting) Table3() (*Result, error) {
	with := s.board
	without := with.WithoutPB()
	res := &Result{
		Name:   "table3",
		Title:  "Buffer configuration of SushiAccel (" + with.Name + "), KB",
		Header: []string{"buffer", "w/o PB", "w/ PB"},
	}
	type row struct {
		name     string
		wo, with int64
	}
	rows := []row{
		{"DB (ping+pong)", without.DBBytes, with.DBBytes},
		{"SB", without.SBBytes, with.SBBytes},
		{"LB", without.LBBytes, with.LBBytes},
		{"OB", without.OBBytes, with.OBBytes},
		{"ZSB", without.ZSBBytes, with.ZSBBytes},
		{"PB", without.PBBytes, with.PBBytes},
		{"Overall", without.TotalBufferBytes(), with.TotalBufferBytes()},
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, []string{
			r.name,
			fmt.Sprintf("%d", r.wo>>10),
			fmt.Sprintf("%d", r.with>>10),
		})
	}
	res.Metrics = map[string]float64{
		"overall_nopb_kb": float64(without.TotalBufferBytes() >> 10),
		"overall_kb":      float64(with.TotalBufferBytes() >> 10),
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("both designs use the same overall on-chip storage (paper: %d KB BRAM + %d KB URAM)", bramKB, uramKB))
	return res, nil
}

// Table4 regenerates the reuse-class feature matrix (Table 4). The rows
// are architectural facts from the cited designs; SUSHI's row is what
// this repository implements.
func (setting) Table4() (*Result, error) {
	res := &Result{
		Name:   "table4",
		Title:  "Reuse comparison (prior works vs SUSHI)",
		Header: []string{"work", "iActs reuse", "oAct reuse", "weights reuse", "SubGraph reuse"},
	}
	res.Rows = [][]string{
		{"MAERI", "yes", "no", "temporal", "no"},
		{"NVDLA", "no", "yes", "temporal", "no"},
		{"Eyeriss", "yes", "no", "temporal", "no"},
		{"Xilinx DPU", "yes", "yes", "temporal", "no"},
		{"SUSHI", "yes", "yes", "temporal", "spatial+temporal"},
	}
	res.Notes = append(res.Notes,
		"SubGraph reuse is the paper's novel cross-query reuse class, realized by the Persistent Buffer")
	return res, nil
}
