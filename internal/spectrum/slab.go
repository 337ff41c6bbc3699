package spectrum

import (
	"fmt"

	"addcrn/internal/netmodel"
)

func errSlabSize(busy, suTx, nn int) error {
	return fmt.Errorf("spectrum: slab lane sized (busy=%d, suTx=%d) for %d nodes", busy, suTx, nn)
}

// SlabLane supplies external backing for a Tracker's per-node hot arrays —
// the busy-neighbor counters and the SU-transmitter bitset. The batch
// execution layer packs B lanes' trackers into contiguous
// structure-of-arrays slabs (one sub-slice per lane, indexed lane*n+node)
// so interleaved lanes touch dense memory; see internal/mac.NewSlabs.
// A zero SlabLane means "allocate privately", which is the scalar path.
type SlabLane struct {
	Busy []int32
	SuTx []uint64 // BitsetWords(n) words
}

// NewTrackerBacked is NewTracker with the hot per-node arrays taken from
// slab when it is non-zero (both slices must then be sized for
// nw.NumNodes() nodes; they are cleared here). Tracker.Renew keeps whatever
// backing the tracker already has whenever the node count still fits, so a
// slab-backed tracker stays slab-backed across workspace reuse.
func NewTrackerBacked(nw *netmodel.Network, puRange, suRange float64, observer Observer, slab SlabLane) (*Tracker, error) {
	t, err := NewTracker(nw, puRange, suRange, observer)
	if err != nil {
		return nil, err
	}
	if slab.Busy != nil || slab.SuTx != nil {
		nn := nw.NumNodes()
		if len(slab.Busy) != nn || len(slab.SuTx) != bitWords(nn) {
			return nil, errSlabSize(len(slab.Busy), len(slab.SuTx), nn)
		}
		clear(slab.Busy)
		clear(slab.SuTx)
		t.busy = slab.Busy
		t.suTx = slab.SuTx
	}
	return t, nil
}
