package supernet

import "testing"

func TestPrintCalibration(t *testing.T) {
	for _, s := range []*SuperNet{NewOFAResNet50(), NewOFAMobileNetV3()} {
		fr, err := s.Frontier()
		if err != nil {
			t.Fatal(err)
		}
		for _, sn := range fr {
			t.Logf("%s %s: %.2f MB, %.2f GFLOPs, acc %.2f", s.Name, sn.Name,
				float64(sn.WeightBytes())/(1<<20), float64(sn.FLOPs())/1e9, sn.Accuracy)
		}
		sh, _ := SharedGraph(fr)
		t.Logf("%s shared: %.2f MB; cells %d", s.Name, float64(sh.Bytes())/(1<<20), s.NumCells())
	}
}
