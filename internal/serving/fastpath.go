package serving

import (
	"fmt"
	"sync"

	"sushi/internal/accel"
	"sushi/internal/latencytable"
	"sushi/internal/supernet"
)

// buildKey identifies one memoizable table build. Only the Options
// fields that influence the build participate (Accel, Mode, Candidates
// after defaulting, Seed); the supernet and frontier are identified by
// pointer — the core layer memoizes frontier derivation per workload,
// so equal workloads present pointer-equal inputs, and distinct
// frontiers can never collide. The budget ladder (one level for
// BuildTable) is folded in as its canonical printed form.
type buildKey struct {
	super      *supernet.SuperNet
	frontier0  *supernet.SubNet
	frontierN  int
	mode       Mode
	candidates int
	seed       int64
	accel      accel.Config
	budgets    string
}

// buildEntry is one memoized build; once gates the single derivation so
// concurrent harness workers requesting the same table block on one
// build instead of racing duplicates.
type buildEntry struct {
	once  sync.Once
	table *latencytable.Table
	cfg   accel.Config
	err   error
}

// buildCacheCap bounds the build memo; a process constructing an
// unbounded stream of distinct supernets (tests, fuzzing) clears the
// memo when it is full and starts over, as the scheduler's window memo
// does, instead of growing the map forever. A caller holding an entry
// keeps it: clearing drops only the map's reference.
const buildCacheCap = 64

var (
	buildMu sync.Mutex
	builds  map[buildKey]*buildEntry
)

// buildTableCached memoizes buildTableUncached by build parameters.
// Builds are deterministic (column workers write by index; candidate
// generation is seeded), so a memoized table is value-identical to a
// fresh one — callers share it the same way cluster replicas already
// share one table via Options.Table.
func buildTableCached(super *supernet.SuperNet, frontier []*supernet.SubNet, opt Options, budgets []int64) (*latencytable.Table, accel.Config, error) {
	if opt.Candidates <= 0 {
		opt.Candidates = 16
	}
	key := buildKey{
		super:      super,
		frontierN:  len(frontier),
		mode:       opt.Mode,
		candidates: opt.Candidates,
		seed:       opt.Seed,
		accel:      opt.Accel,
		budgets:    fmt.Sprint(budgets),
	}
	if len(frontier) > 0 {
		key.frontier0 = frontier[0]
	}
	buildMu.Lock()
	e := builds[key]
	if e == nil {
		if builds == nil {
			builds = make(map[buildKey]*buildEntry)
		} else if len(builds) >= buildCacheCap {
			clear(builds)
		}
		e = &buildEntry{}
		builds[key] = e
	}
	buildMu.Unlock()
	e.once.Do(func() {
		e.table, e.cfg, e.err = buildTableUncached(super, frontier, opt, budgets)
	})
	return e.table, e.cfg, e.err
}
