package latencytable_test

import (
	"bytes"
	"testing"

	"sushi/internal/latencytable"
	"sushi/internal/sched"
	"sushi/internal/supernet"
)

// FuzzTableDecode feeds Decode arbitrary bytes. It must never panic, and
// a table it returns must pass CheckDecoded and schedule a query per row
// under each policy. The committed corpus (testdata/fuzz/FuzzTableDecode)
// is validWire's stream plus every entry of corruptStreams.
func FuzzTableDecode(f *testing.F) {
	s := supernet.NewOFAMobileNetV3()
	fr, err := s.Frontier()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := latencytable.Decode(bytes.NewReader(data), s, fr)
		if err != nil {
			return
		}
		latencytable.CheckDecoded(t, tab)
		sc, err := sched.New(tab, sched.Options{Q: 2, StateAware: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tab.Rows(); i++ {
			for _, p := range []sched.Policy{sched.StrictAccuracy, sched.StrictLatency, sched.MinEnergy} {
				q := sched.Query{ID: i, MinAccuracy: tab.SubNets[i].Accuracy, MaxLatency: tab.Lookup(i, 0), Policy: &p}
				if _, err := sc.Schedule(q); err != nil {
					t.Fatalf("row %d under %v: %v", i, p, err)
				}
			}
		}
	})
}
