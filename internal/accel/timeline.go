package accel

import (
	"sushi/internal/nn"
)

// TileEvent is one weight tile's schedule in the Fig. 9b intra-layer
// timeline: when its DRAM fetch runs and when its compute runs. The
// ping-pong Dynamic Buffer lets tile i+1's fetch overlap tile i's
// compute; fetch i+1 can start only after fetch i completes (single DRAM
// channel) and compute i+1 only after both fetch i+1 and compute i.
type TileEvent struct {
	// Tile is the index within the layer's distinct-weight stream.
	Tile int
	// FetchStart, FetchEnd bound the DRAM transfer (seconds from layer
	// start); zero-length when the tile is fully PB-resident.
	FetchStart, FetchEnd float64
	// ComputeStart, ComputeEnd bound the DPE execution of the tile.
	ComputeStart, ComputeEnd float64
	// Hidden reports whether the fetch was fully hidden behind earlier
	// compute (stage D2 of Fig. 9b).
	Hidden bool
}

// Timeline reconstructs the intra-layer schedule of Fig. 9b for one
// layer: distinct weights split into DB-half tiles, fetches pipelined
// against compute. hitBytes of the layer's weights are PB-resident and
// need no fetch; they are modeled as the final tile(s) of the stream
// (residency order does not change the critical path because compute
// time per tile is uniform).
//
// The returned makespan approximates layerLatency's fill+overlap model;
// the two agree on what is hidden and what is exposed, and the unit test
// pins that agreement.
func Timeline(c *Config, l *nn.Layer, hitBytes int64) []TileEvent {
	weightBytes := l.WeightBytes()
	hitBytes = min(hitBytes, weightBytes)
	distinct := weightBytes - hitBytes
	half := c.DBHalfBytes()
	if half <= 0 || weightBytes == 0 {
		return nil
	}
	nTiles := int((weightBytes + half - 1) / half)
	fetchTiles := int((distinct + half - 1) / half)
	tCompute := float64(computeCycles(c, l)) / c.Freq()
	perTileCompute := tCompute / float64(nTiles)

	events := make([]TileEvent, nTiles)
	var fetchFree, computeFree float64
	remaining := distinct
	for i := 0; i < nTiles; i++ {
		e := &events[i]
		e.Tile = i
		if i < fetchTiles {
			bytes := min(half, remaining)
			remaining -= bytes
			e.FetchStart = fetchFree
			e.FetchEnd = e.FetchStart + float64(bytes)/c.OffChipBW
			fetchFree = e.FetchEnd
		} else {
			// PB-resident tile: available immediately.
			e.FetchStart, e.FetchEnd = computeFree, computeFree
		}
		start := e.FetchEnd
		if computeFree > start {
			start = computeFree
		}
		e.ComputeStart = start
		e.ComputeEnd = start + perTileCompute
		computeFree = e.ComputeEnd
		// A fetch is hidden when it finished before the previous tile's
		// compute released the array.
		e.Hidden = i > 0 && e.FetchEnd <= events[i-1].ComputeEnd
	}
	return events
}

// Makespan returns the end-to-end time of a timeline (0 for empty).
func Makespan(events []TileEvent) float64 {
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].ComputeEnd
}
