package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUniformBoundsAndDeterminism(t *testing.T) {
	acc := Range{75, 80}
	lat := Range{2e-3, 10e-3}
	a, err := Uniform(200, acc, lat, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 {
		t.Fatalf("len = %d", len(a))
	}
	for i, q := range a {
		if q.ID != i {
			t.Fatalf("ID[%d] = %d", i, q.ID)
		}
		if q.MinAccuracy < acc.Lo || q.MinAccuracy > acc.Hi {
			t.Fatalf("accuracy %g outside range", q.MinAccuracy)
		}
		if q.MaxLatency < lat.Lo || q.MaxLatency > lat.Hi {
			t.Fatalf("latency %g outside range", q.MaxLatency)
		}
	}
	b, err := Uniform(200, acc, lat, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different stream")
		}
	}
	c, err := Uniform(200, acc, lat, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical stream")
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := Uniform(0, Range{0, 1}, Range{0, 1}, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := Uniform(5, Range{2, 1}, Range{0, 1}, 1); err == nil {
		t.Error("inverted accuracy range accepted")
	}
	if _, err := Uniform(5, Range{0, 1}, Range{2, 1}, 1); err == nil {
		t.Error("inverted latency range accepted")
	}
	if _, err := Uniform(4, Range{0, math.Inf(1)}, Range{1e-3, 2e-3}, 1); err == nil {
		t.Error("infinite accuracy bound accepted")
	}
	if _, err := Uniform(4, Range{70, 80}, Range{math.Inf(-1), math.Inf(1)}, 1); err == nil {
		t.Error("infinite latency range accepted")
	}
}

func TestUniformQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		qs, err := Uniform(n, Range{70, 80}, Range{1e-3, 2e-3}, seed)
		if err != nil || len(qs) != n {
			return false
		}
		for _, q := range qs {
			if q.MinAccuracy < 70 || q.MinAccuracy > 80 || q.MaxLatency < 1e-3 || q.MaxLatency > 2e-3 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPhasedCycles(t *testing.T) {
	phases := []Phase{
		{Name: "sparse", Queries: 10, Acc: Range{75, 76}, Lat: Range{10e-3, 12e-3}},
		{Name: "dense", Queries: 5, Acc: Range{78, 80}, Lat: Range{2e-3, 3e-3}},
	}
	qs, err := Phased(40, phases, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 40 {
		t.Fatalf("len %d", len(qs))
	}
	// Queries 0-9 sparse, 10-14 dense, 15-24 sparse, ...
	inSparse := func(i int) bool { return i%15 < 10 }
	for i, q := range qs {
		if inSparse(i) {
			if q.MinAccuracy > 76.001 || q.MaxLatency < 9e-3 {
				t.Fatalf("query %d should be sparse-phase: %+v", i, q)
			}
		} else {
			if q.MinAccuracy < 77.999 || q.MaxLatency > 3.001e-3 {
				t.Fatalf("query %d should be dense-phase: %+v", i, q)
			}
		}
	}
}

func TestPhasedValidation(t *testing.T) {
	if _, err := Phased(10, nil, 1); err == nil {
		t.Error("no phases accepted")
	}
	if _, err := Phased(10, []Phase{{Queries: 0, Acc: Range{0, 1}, Lat: Range{0, 1}}}, 1); err == nil {
		t.Error("zero-length phase accepted")
	}
	if _, err := Phased(0, []Phase{{Queries: 1, Acc: Range{0, 1}, Lat: Range{0, 1}}}, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestBurstyTightensLatency(t *testing.T) {
	lat := Range{10e-3, 10e-3} // fixed baseline for a clean signal
	qs, err := Bursty(500, Range{75, 76}, lat, 0.1, 0.3, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	burst, normal := 0, 0
	for _, q := range qs {
		switch {
		case q.MaxLatency < 4e-3:
			burst++
		case q.MaxLatency > 9e-3:
			normal++
		default:
			t.Fatalf("latency %g neither burst nor normal", q.MaxLatency)
		}
	}
	if burst == 0 {
		t.Error("no burst queries generated")
	}
	if normal == 0 {
		t.Error("no normal queries generated")
	}
	if burst >= normal {
		t.Errorf("burst %d >= normal %d: burst should be the minority at p=0.1", burst, normal)
	}
}

func TestBurstyValidation(t *testing.T) {
	ok := Range{0, 1}
	if _, err := Bursty(10, ok, ok, -0.1, 0.5, 3, 1); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := Bursty(10, ok, ok, 0.1, 0, 3, 1); err == nil {
		t.Error("zero factor accepted")
	}
	if _, err := Bursty(10, ok, ok, 0.1, 1.5, 3, 1); err == nil {
		t.Error("factor >1 accepted")
	}
	if _, err := Bursty(10, ok, ok, 0.1, 0.5, 0, 1); err == nil {
		t.Error("zero burst length accepted")
	}
	if _, err := Bursty(0, ok, ok, 0.1, 0.5, 3, 1); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestDriftingMovesConstraints(t *testing.T) {
	qs, err := Drifting(100,
		Range{79, 80}, Range{75, 76}, // accuracy relaxes
		Range{2e-3, 3e-3}, Range{8e-3, 10e-3}, // latency budget loosens
		5)
	if err != nil {
		t.Fatal(err)
	}
	first, last := qs[0], qs[len(qs)-1]
	if first.MinAccuracy < 78.9 || last.MinAccuracy > 76.1 {
		t.Errorf("accuracy did not drift: first %.2f last %.2f", first.MinAccuracy, last.MinAccuracy)
	}
	if first.MaxLatency > 3.1e-3 || last.MaxLatency < 7.9e-3 {
		t.Errorf("latency did not drift: first %g last %g", first.MaxLatency, last.MaxLatency)
	}
}

func TestDriftingSingleQuery(t *testing.T) {
	qs, err := Drifting(1, Range{75, 75}, Range{80, 80}, Range{1e-3, 1e-3}, Range{2e-3, 2e-3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0].MinAccuracy != 75 {
		t.Errorf("single query should use start range, got %g", qs[0].MinAccuracy)
	}
}

func TestPoissonArrivals(t *testing.T) {
	arr, err := Poisson{Rate: 100}.Times(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 1000 {
		t.Fatalf("len %d", len(arr))
	}
	prev := 0.0
	for i, a := range arr {
		if a <= prev {
			t.Fatalf("arrivals not strictly increasing at %d", i)
		}
		prev = a
	}
	// Mean inter-arrival should approximate 1/rate within 10%.
	mean := arr[len(arr)-1] / float64(len(arr))
	if mean < 0.009 || mean > 0.011 {
		t.Errorf("mean inter-arrival %.5f, want ~0.01", mean)
	}
	// Determinism.
	arr2, err := Poisson{Rate: 100}.Times(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arr {
		if arr[i] != arr2[i] {
			t.Fatal("same seed differs")
		}
	}
	if _, err := (Poisson{Rate: 100}).Times(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := (Poisson{Rate: 0}).Times(10, 1); err == nil {
		t.Error("rate=0 accepted")
	}
}
