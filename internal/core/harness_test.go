package core

import (
	"fmt"
	"testing"
)

// TestFrontierMemoRejectsUnknownWorkloads: unknown workload names are
// rejected before the frontier memo, so however many arrive they take
// no entry, and the real families stay memoized (pointer-equal
// frontiers, which serving's table-build memo keys on).
func TestFrontierMemoRejectsUnknownWorkloads(t *testing.T) {
	for i := 0; i < 20; i++ {
		if _, _, err := frontierFor(Workload(fmt.Sprintf("fig10:x%d", i))); err == nil {
			t.Fatalf("unknown workload %d accepted", i)
		}
	}
	if n := len(frontierCache); n > 2 {
		t.Errorf("frontier memo holds %d entries after 20 unknown names, want at most 2", n)
	}
	_, a, err := frontierFor(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := frontierFor(MobileNetV3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || &a[0] != &b[0] {
		t.Error("two MobileNetV3 derivations returned different frontiers")
	}
}
