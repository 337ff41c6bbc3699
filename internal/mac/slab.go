package mac

import (
	"fmt"

	"addcrn/internal/spectrum"
)

// Slabs packs the per-run mutable hot state of B lanes — each lane's MAC
// state machine array, its busy/free eligibility bitsets, and its
// carrier-sense tracker's busy counters and SU-transmitter bitset — into
// contiguous structure-of-arrays storage, lane l's share of each array one
// contiguous block. When the batch engine interleaves B repetitions of one
// topology, the per-event state touched across lanes then lives in a
// handful of dense arrays instead of B independently allocated heaps. Lane views alias the slab;
// a Slabs serves one batched run at a time.
type Slabs struct {
	lanes, n int
	sts      []state
	busyElig []uint64
	freeElig []uint64
	trkBusy  []int32
	trkSuTx  []uint64
	views    []LaneSlab
}

// LaneSlab is one lane's view of a Slabs: equal-length sub-slices of the
// shared backing, handed to the MAC via Config.Slab.
type LaneSlab struct {
	sts      []state
	busyElig []uint64
	freeElig []uint64
	tracker  spectrum.SlabLane
}

// NewSlabs allocates slab storage for `lanes` lanes of n nodes each.
func NewSlabs(lanes, n int) *Slabs {
	w := spectrum.BitsetWords(n)
	s := &Slabs{
		lanes:    lanes,
		n:        n,
		sts:      make([]state, lanes*n),
		busyElig: make([]uint64, lanes*w),
		freeElig: make([]uint64, lanes*w),
		trkBusy:  make([]int32, lanes*n),
		trkSuTx:  make([]uint64, lanes*w),
		views:    make([]LaneSlab, lanes),
	}
	for l := 0; l < lanes; l++ {
		lo, hi := l*n, (l+1)*n
		wlo, whi := l*w, (l+1)*w
		s.views[l] = LaneSlab{
			sts:      s.sts[lo:hi:hi],
			busyElig: s.busyElig[wlo:whi:whi],
			freeElig: s.freeElig[wlo:whi:whi],
			tracker: spectrum.SlabLane{
				Busy: s.trkBusy[lo:hi:hi],
				SuTx: s.trkSuTx[wlo:whi:whi],
			},
		}
	}
	return s
}

// Fits reports whether the slab can serve a batch of `lanes` lanes of n
// nodes. Smaller batches reuse the first lanes of a wider slab — a ragged
// final block must keep the same lane views as the full blocks before it,
// or every MAC's slab identity would change and Renew would rebuild them.
func (s *Slabs) Fits(lanes, n int) bool {
	return s != nil && lanes <= s.lanes && s.n == n
}

// Lane returns lane l's view.
func (s *Slabs) Lane(l int) *LaneSlab { return &s.views[l] }

// adopt points the MAC's dense per-node arrays at the lane view (clearing
// is the caller's loop, which initializes every node anyway).
func (m *MAC) adoptSlab(sl *LaneSlab, nn int) error {
	if len(sl.sts) != nn {
		return fmt.Errorf("mac: slab lane sized for %d nodes, network has %d", len(sl.sts), nn)
	}
	m.sts = sl.sts
	m.busyElig = sl.busyElig
	m.freeElig = sl.freeElig
	return nil
}
