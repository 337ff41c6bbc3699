package netmodel

import (
	"fmt"
	"sync"

	"addcrn/internal/geom"
)

// CSRTable is a compressed-sparse-row neighbor table over a static
// deployment: Row(i) lists the indices of secondary nodes within a fixed
// radius of source i, packed into one flat []int32 with an offsets array.
//
// The table is built once from the grid index and then read forever: a
// carrier-sense transition walks one contiguous row instead of re-running a
// grid range query over a deployment that never moves. Each row preserves
// the exact order geom.Grid.Within returns for the same query, so replacing
// a per-event grid query with a row walk is bit-identical — observer
// callbacks fire in the same sequence.
type CSRTable struct {
	// offsets has len(sources)+1 entries; row i spans
	// flat[offsets[i]:offsets[i+1]].
	offsets []int32
	flat    []int32

	// companion is the structure Companion derives from the table, built
	// at most once.
	companionOnce sync.Once
	companion     any
}

// Companion returns the structure build derives from the table, running
// build on the first call only. It lets a consumer that needs an index over
// the table (the carrier-sense tracker's PU cover index) pay for it once per
// table, so a provider that shares one table across every run over a
// deployment shares the derived index too. Concurrent first calls block on
// one build. Every caller must pass a build function that derives the same
// structure, and must treat the result as immutable.
func (t *CSRTable) Companion(build func(*CSRTable) any) any {
	t.companionOnce.Do(func() { t.companion = build(t) })
	return t.companion
}

// NumRows returns the number of sources the table was built over.
func (t *CSRTable) NumRows() int { return len(t.offsets) - 1 }

// Row returns source i's neighbor indices. The returned slice aliases the
// table's backing array and must not be modified.
func (t *CSRTable) Row(i int32) []int32 { return t.flat[t.offsets[i]:t.offsets[i+1]] }

// Len returns the total number of (source, neighbor) pairs stored.
func (t *CSRTable) Len() int { return len(t.flat) }

// BuildCSR packs, for every source point, the indices of grid-indexed
// points within radius into one CSR table. Row order matches Grid.Within's
// result order for the same query (boundary distances at exactly radius
// included), which is what keeps the fast path bit-identical to per-event
// grid queries.
func BuildCSR(grid *geom.Grid, sources []geom.Point, radius float64) (*CSRTable, error) {
	if grid == nil {
		return nil, fmt.Errorf("netmodel: BuildCSR on nil grid")
	}
	if radius < 0 {
		return nil, fmt.Errorf("netmodel: BuildCSR radius must be non-negative, got %v", radius)
	}
	t := &CSRTable{
		offsets: make([]int32, len(sources)+1),
		// Pre-size for the expected uniform-density degree to keep the
		// build's growth reallocations to a handful.
		flat: make([]int32, 0, len(sources)*8),
	}
	for i, p := range sources {
		t.flat = grid.Within(p, radius, t.flat)
		t.offsets[i+1] = int32(len(t.flat))
	}
	return t, nil
}

// SUNeighborTable builds the SU→SU CSR table: row i lists every secondary
// node (base station included) within radius of SU i — including SU i
// itself, matching what a grid query centered on the node returns; callers
// that need the open neighborhood skip the self entry.
func (nw *Network) SUNeighborTable(radius float64) (*CSRTable, error) {
	return BuildCSR(nw.SUGrid, nw.SU, radius)
}

// PUNeighborTable builds the PU→SU CSR table: row i lists every secondary
// node within radius of PU i.
func (nw *Network) PUNeighborTable(radius float64) (*CSRTable, error) {
	return BuildCSR(nw.SUGrid, nw.PU, radius)
}
