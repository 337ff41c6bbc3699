// Package spectrum models the shared radio medium: which transmitters (PU
// or SU) are active, and what each secondary node's carrier sensor observes
// within its Proper Carrier-sensing Range (PCR).
//
// The core abstraction is a per-SU busy counter — the number of active
// transmitters within PCR of that SU — maintained incrementally. Counter
// transitions drive the MAC: 0 -> 1 freezes a backoff, -> 0 resumes it, and
// a PU arrival during a transmission forces the spectrum handoff the
// paper's Section I requires.
//
// Because the deployment never moves, the set of nodes a transmitter
// touches is a pure function of its identity. The tracker therefore works
// from CSR-packed neighbor tables (SU→SU within the coordination range,
// PU→SU within the protection range) and walks one contiguous row per
// transition — the static-topology fast path. The tables come from a
// NeighborTables provider (the Network itself by default; a memoizing
// Topology when runs share a deployment). The per-event grid query survives
// only for arbitrary positions (AddTransmitter); it is bit-identical to the
// indexed path because a CSR row stores exactly the grid's result sequence
// for the same query.
package spectrum

import (
	"fmt"
	"math/bits"

	"addcrn/internal/geom"
	"addcrn/internal/netmodel"
	"addcrn/internal/sim"
)

// Observer receives carrier-sense transitions for secondary nodes. The MAC
// implements this interface.
type Observer interface {
	// SpectrumBusy fires when node's busy count rises from zero.
	SpectrumBusy(node int32, now sim.Time)
	// SpectrumFree fires when node's busy count returns to zero.
	SpectrumFree(node int32, now sim.Time)
	// PUArrived fires when a primary transmitter becomes active within
	// node's PCR, regardless of the prior busy count. A transmitting node
	// must abort (handoff) on this signal.
	PUArrived(node int32, now sim.Time)
}

// NeighborTables supplies the CSR neighbor tables behind the indexed fast
// path: row id of the SU table lists the secondary nodes within radius of
// SU id, row i of the PU table the secondary nodes within radius of primary
// user i. *netmodel.Network implements it by building a table per call; a
// caching provider (internal/experiment's shared topology) satisfies the
// same contract by memoizing per radius. Returned tables are immutable and
// may be shared between trackers.
type NeighborTables interface {
	SUNeighborTable(radius float64) (*netmodel.CSRTable, error)
	PUNeighborTable(radius float64) (*netmodel.CSRTable, error)
}

// TxKind distinguishes primary from secondary transmitters.
type TxKind uint8

// Transmitter kinds.
const (
	TxPU TxKind = iota + 1
	TxSU
)

// Tracker maintains per-SU busy counters over a fixed deployment.
//
// Two sensing radii exist because primary protection and secondary
// coordination are different obligations: an active PU freezes every SU
// within puRange (the PCR-derived protection distance — mandatory for every
// algorithm, since SUs must never disturb PUs), while an active SU freezes
// SUs within suRange (ADDC sets it to the PCR; the generic-CSMA baseline
// uses a conventional 2r guard and pays for it in collisions).
//
// Observer callbacks may reenter the tracker (a resumed node can start a
// transmission, which registers a new transmitter). Each mutating call
// therefore applies all of its counter updates before delivering any
// callback. The grid path works on a pooled buffer of its own rather than
// shared scratch space; the CSR path walks an immutable row, which is
// reentrancy-safe without any copy.
type Tracker struct {
	nw       *netmodel.Network
	tables   NeighborTables
	puRange  float64
	suRange  float64
	observer Observer
	busy     []int32
	pool     [][]int32

	// arrivedTxOnly, when set, narrows PUArrived delivery to nodes that are
	// currently registered SU transmitters (suTx); see FilterPUArrivals.
	arrivedTxOnly bool
	// suTx is the bitset of currently registered SU transmitters; nSuTx
	// counts them so an empty medium skips arrival scans outright.
	suTx  []uint64
	nSuTx int
	// busyElig/freeElig, when non-nil, are the observer's eligibility
	// bitsets narrowing SpectrumBusy/SpectrumFree delivery; see
	// FilterTransitions.
	busyElig []uint64
	freeElig []uint64

	// lazyPU is the fully filtered primary-user fast path, enabled when both
	// delivery filters are installed: an indexed PU registration flips one
	// bit of the active-PU set instead of folding itself into the busy
	// counters, so `busy` holds only secondary/blocking contributions and a
	// node's primary contribution is its cover mask ANDed with the active
	// set. A toggle then visits only the eligible nodes of its row, through
	// per-PU row-position bitsets laid out by the cover index: eligRow
	// mirrors busyElig|freeElig and txRow mirrors suTx in each PU's
	// row-position space. Each visited node is checked against its live
	// eligibility bit for the toggle's direction, its counter and the other
	// active PUs. eligRow mirrors the eligibility union rather than each set
	// because a backoff freezing or resuming — the most frequent eligibility
	// change by far, driven by every SU transmission — moves a node between
	// the two sets without leaving the union. The observer writes its
	// bitsets directly, so eligRow is brought up to date from them by
	// syncElig, which diffs the union against eligSnap, the node-space copy
	// eligRow currently reflects: once per toggle and again after every
	// callback of its walk.
	lazyPU bool
	// cover is the static PU cover index, bound on the lazy path's first PU
	// registration; pmask and pw mirror its node masks and words per mask
	// (pw is 0 while unbound, which makes every PU query false). quick is
	// pw == 1 outside a walk, puNear's inlined case, which reads the active
	// set's single word from its mirror active0.
	cover    *coverIndex
	pmask    []uint64
	pw       int
	quick    bool
	active   []uint64
	active0  uint64
	eligRow  []uint64
	eligSnap []uint64
	txRow    []uint64
	// walkPU is the PU whose lazy toggle is delivering callbacks (-1 when
	// none), walkAdd its direction and walkRank the row position of the
	// node being called back. PU queries made from inside those callbacks
	// see the toggle applied exactly up to that node — counted at and before
	// it when adding, after it when removing — which is the state a walk
	// that updates one node at a time would show.
	walkPU   int32
	walkRank int32
	walkAdd  bool

	// suTable and puTable are the CSR neighbor tables behind the indexed
	// fast path, fetched lazily from the tables provider on first use so a
	// tracker only ever fed arbitrary positions never pays for them.
	suTable *netmodel.CSRTable
	puTable *netmodel.CSRTable
}

// NewTracker builds a tracker for network nw with PU-protection sensing
// range puRange and SU-coordination sensing range suRange, delivering
// transitions to observer.
func NewTracker(nw *netmodel.Network, puRange, suRange float64, observer Observer) (*Tracker, error) {
	if puRange <= 0 || suRange <= 0 {
		return nil, fmt.Errorf("spectrum: sensing ranges must be positive, got pu=%v su=%v", puRange, suRange)
	}
	if observer == nil {
		return nil, fmt.Errorf("spectrum: nil observer")
	}
	nn := nw.NumNodes()
	return &Tracker{
		nw:       nw,
		tables:   nw,
		puRange:  puRange,
		suRange:  suRange,
		observer: observer,
		busy:     make([]int32, nn),
		suTx:     make([]uint64, bitWords(nn)),
		walkPU:   -1,
	}, nil
}

// Renew returns t to its just-constructed state over network nw with new
// sensing ranges and observer, keeping the buffer pool and reusing every
// backing array whose capacity still fits. Filters and the tables provider
// reset to their defaults (re-install them as after NewTracker). A renewed
// tracker is observationally identical to a fresh one: counters, transmitter
// and eligibility sets, and the lazy-PU machinery all restart from zero, and
// the CSR tables are re-fetched from the provider on next use.
func (t *Tracker) Renew(nw *netmodel.Network, puRange, suRange float64, observer Observer) error {
	if puRange <= 0 || suRange <= 0 {
		return fmt.Errorf("spectrum: sensing ranges must be positive, got pu=%v su=%v", puRange, suRange)
	}
	if observer == nil {
		return fmt.Errorf("spectrum: nil observer")
	}
	nn := nw.NumNodes()
	t.nw = nw
	t.tables = nw
	t.puRange = puRange
	t.suRange = suRange
	t.observer = observer
	if cap(t.busy) >= nn {
		t.busy = t.busy[:nn]
		clear(t.busy)
	} else {
		t.busy = make([]int32, nn)
	}
	t.suTx = resizeWords(t.suTx, bitWords(nn))
	t.nSuTx = 0
	t.arrivedTxOnly = false
	t.busyElig = nil
	t.freeElig = nil
	t.lazyPU = false
	t.unbindCover()
	t.suTable = nil
	t.puTable = nil
	return nil
}

// SetTables replaces the provider the CSR tables are fetched from; nil
// restores the network itself. Call it before the simulation starts — any
// previously fetched tables are discarded.
func (t *Tracker) SetTables(tb NeighborTables) {
	if tb == nil {
		tb = t.nw
	}
	t.tables = tb
	t.suTable = nil
	t.puTable = nil
	t.unbindCover()
}

// FilterPUArrivals narrows PUArrived delivery to nodes that are registered
// SU transmitters at arrival time. An observer may opt in when PUArrived is
// a no-op for every non-transmitting node (true for the MAC, whose only
// response is the spectrum handoff abort): the skipped calls are exactly the
// no-ops, so results are bit-identical while a primary arrival stops paying
// one interface call per silent neighbor. Observers that record or act on
// every arrival (tests, tracing) must leave this off — the default.
func (t *Tracker) FilterPUArrivals(on bool) { t.arrivedTxOnly = on; t.updateLazyPU() }

// FilterTransitions narrows SpectrumBusy delivery to the nodes set in the
// busyEligible bitset and SpectrumFree delivery to the nodes set in
// freeEligible (node v is bit v%64 of word v/64; BitsetWords gives the
// length). The observer shares the bitsets and must keep each bit equal to
// "would my callback do anything for this node right now?" at every point a
// callback could fire — for the MAC that means updating both bits on every
// state write. Under that contract the skipped calls are exactly the
// callbacks that would have returned immediately, so results are
// bit-identical while the busy/free fan-out stops paying one interface call
// per indifferent neighbor (the overwhelming majority: one PU toggle flips
// counters for ~60% of the network, of which a handful are mid-backoff).
// The contract also requires that a SpectrumBusy callback change no other
// node's bits and not reenter the tracker. Passing nil bitsets restores
// unconditional delivery — the default, and what recording observers
// (tests, tracing) need.
//
// Like FilterPUArrivals and SetTables, call it before the simulation
// starts: with both filters installed the tracker switches primary users to
// lazy flag accounting, and the representations must not change under
// registered transmitters.
func (t *Tracker) FilterTransitions(busyEligible, freeEligible []uint64) {
	t.busyElig = busyEligible
	t.freeElig = freeEligible
	t.updateLazyPU()
}

// BitsetWords returns the number of uint64 words a per-node bitset of an
// n-node network occupies.
func BitsetWords(n int) int { return bitWords(n) }

// flipRows toggles node's bit in the row-space bitset family rows of every
// PU covering it (nothing while the cover index is unbound).
func (t *Tracker) flipRows(rows []uint64, node int32) {
	c := t.cover
	if c == nil {
		return
	}
	for _, p := range c.invBit[c.invOff[node]:c.invOff[node+1]] {
		rows[p>>6] ^= 1 << (uint(p) & 63)
	}
}

// updateLazyPU recomputes whether the lazy primary-user path is in effect;
// the cover index binds on the path's first PU registration.
func (t *Tracker) updateLazyPU() {
	t.lazyPU = t.arrivedTxOnly && t.busyElig != nil && t.freeElig != nil
	if !t.lazyPU {
		t.unbindCover()
	}
}

// bindCover returns the cover index of the tracker's PU table, binding it on
// first use. Every PU is inactive until its first registration, so the
// active set starts empty; the row-space sets start as the node sets they
// mirror.
func (t *Tracker) bindCover() *coverIndex {
	if t.cover != nil {
		return t.cover
	}
	c := coverIndexOf(t.puTab(), t.nw.NumNodes())
	t.cover = c
	t.pmask = c.mask
	t.pw = c.pw
	t.quick = c.pw == 1
	t.active = resizeWords(t.active, c.pw)
	t.active0 = 0
	t.eligRow = resizeWords(t.eligRow, c.totalRowWords())
	t.eligSnap = resizeWords(t.eligSnap, bitWords(c.numNodes))
	t.txRow = resizeWords(t.txRow, c.totalRowWords())
	for v := range int32(c.numNodes) {
		if bitHas(t.suTx, v) {
			t.flipRows(t.txRow, v)
		}
	}
	return c
}

// syncElig brings eligRow up to date with the observer's eligibility
// bitsets: every node whose union bit differs from eligSnap flips its row
// positions. The cost is one pass over the node-space words plus the
// cover-list flips of the nodes that entered or left the union since the
// last sync.
func (t *Tracker) syncElig() {
	snap := t.eligSnap
	be, fe := t.busyElig[:len(snap)], t.freeElig[:len(snap)]
	for w := range snap {
		for x := (be[w] | fe[w]) ^ snap[w]; x != 0; x &= x - 1 {
			t.flipRows(t.eligRow, int32(w<<6+bits.TrailingZeros64(x)))
		}
		snap[w] = be[w] | fe[w]
	}
}

// unbindCover drops the cover index and the lazy path's PU state.
func (t *Tracker) unbindCover() {
	t.cover = nil
	t.pmask = nil
	t.pw = 0
	t.quick = false
	t.walkPU = -1
}

// activeCover reports whether an active primary user covers node, leaving
// out the PU of a walk in progress.
func (t *Tracker) activeCover(node int32) bool {
	if t.pw == 1 {
		return t.pmask[node]&t.active[0] != 0
	}
	m := t.pmask[int(node)*t.pw : int(node+1)*t.pw]
	for w, a := range t.active[:t.pw] {
		if m[w]&a != 0 {
			return true
		}
	}
	return false
}

// walkCovers reports whether the walk in progress counts its PU at node
// (see walkPU).
func (t *Tracker) walkCovers(node int32) bool {
	r := t.cover.rank(t.walkPU, node)
	return r >= 0 && (r <= t.walkRank) == t.walkAdd
}

// puNear reports whether any active primary user covers node (lazy path;
// always false otherwise).
func (t *Tracker) puNear(node int32) bool {
	if t.quick {
		return t.pmask[node]&t.active0 != 0
	}
	return t.puNearSlow(node)
}

func (t *Tracker) puNearSlow(node int32) bool {
	return t.activeCover(node) || (t.walkPU >= 0 && t.walkCovers(node))
}

// puCount returns how many active primary users cover node (lazy path).
func (t *Tracker) puCount(node int32) int32 {
	var n int
	m := t.pmask[int(node)*t.pw : int(node+1)*t.pw]
	for w, a := range t.active[:t.pw] {
		n += bits.OnesCount64(m[w] & a)
	}
	if t.walkPU >= 0 && t.walkCovers(node) {
		n++
	}
	return int32(n)
}

// Busy reports whether node currently senses the spectrum busy.
func (t *Tracker) Busy(node int32) bool {
	return t.busy[node] > 0 || t.puNear(node)
}

// BusyCount returns node's current busy counter (for tests).
func (t *Tracker) BusyCount(node int32) int32 {
	return t.busy[node] + t.puCount(node)
}

// PURange returns the primary-protection sensing range.
func (t *Tracker) PURange() float64 { return t.puRange }

// SURange returns the secondary-coordination sensing range.
func (t *Tracker) SURange() float64 { return t.suRange }

func (t *Tracker) rangeFor(kind TxKind) float64 {
	if kind == TxPU {
		return t.puRange
	}
	return t.suRange
}

func (t *Tracker) takeBuf() []int32 {
	if n := len(t.pool); n > 0 {
		buf := t.pool[n-1]
		t.pool = t.pool[:n-1]
		return buf[:0]
	}
	return make([]int32, 0, 64)
}

func (t *Tracker) putBuf(buf []int32) {
	t.pool = append(t.pool, buf)
}

// suRow returns SU id's CSR neighbor row, fetching the table from the
// provider on first use.
func (t *Tracker) suRow(id int32) []int32 {
	if t.suTable == nil {
		tab, err := t.tables.SUNeighborTable(t.suRange)
		if err != nil {
			panic(fmt.Sprintf("spectrum: SU neighbor table: %v", err))
		}
		t.suTable = tab
	}
	return t.suTable.Row(id)
}

// puTab returns the PU neighbor table, fetching it from the provider on
// first use.
func (t *Tracker) puTab() *netmodel.CSRTable {
	if t.puTable == nil {
		tab, err := t.tables.PUNeighborTable(t.puRange)
		if err != nil {
			panic(fmt.Sprintf("spectrum: PU neighbor table: %v", err))
		}
		t.puTable = tab
	}
	return t.puTable
}

// addNeighbors applies one transmitter registration over an explicit
// neighbor sequence. nbrs is borrowed, never retained, and never written:
// CSR rows pass their immutable backing array directly.
func (t *Tracker) addNeighbors(nbrs []int32, kind TxKind, exclude int32, now sim.Time) {
	rose := t.takeBuf()
	// Phase 1: apply every counter update so the medium state is
	// consistent before any observer reacts. The local busy slice and
	// counter keep the compiler from re-loading t.busy[node] after the
	// store (it cannot prove rose does not alias the tracker).
	busy := t.busy
	if t.busyElig != nil {
		// With the transition filter on, record only eligible crossings:
		// delivery re-checks eligibility anyway, and a node that gains
		// eligibility between here and delivery can only do so inside a
		// callback of this batch — none of which (freezes) touch another
		// node's eligibility — so the thinned buffer drops no delivery.
		be := t.busyElig
		for _, node := range nbrs {
			if node == exclude {
				continue
			}
			c := busy[node] + 1
			busy[node] = c
			// Under lazy PU accounting `busy` carries only secondary
			// contributions, so a 0→1 here is a real medium transition only
			// if no active primary already covers the node. PU flags cannot
			// change inside this walk (toggles come from model events, never
			// callbacks), so the check holds through delivery too.
			if c == 1 && bitHas(be, node) && !t.puNear(node) {
				rose = append(rose, node)
			}
		}
	} else {
		for _, node := range nbrs {
			if node == exclude {
				continue
			}
			c := busy[node] + 1
			busy[node] = c
			if c == 1 {
				rose = append(rose, node)
			}
		}
	}
	// Phase 2: callbacks (may reenter the tracker). A reentrant call may
	// have changed a counter again, so re-verify the level each callback
	// reports; the reentrant call delivered its own transitions. Eligibility
	// is read per callback, not snapshotted: a reentrant state change keeps
	// the shared bitsets current.
	if t.busyElig != nil {
		for _, node := range rose {
			if bitHas(t.busyElig, node) && busy[node] > 0 {
				t.observer.SpectrumBusy(node, now)
			}
		}
	} else {
		for _, node := range rose {
			if busy[node] > 0 {
				t.observer.SpectrumBusy(node, now)
			}
		}
	}
	if kind == TxPU {
		if t.arrivedTxOnly {
			if t.nSuTx > 0 {
				for _, node := range nbrs {
					if bitHas(t.suTx, node) && node != exclude {
						t.observer.PUArrived(node, now)
					}
				}
			}
		} else {
			for _, node := range nbrs {
				if node != exclude {
					t.observer.PUArrived(node, now)
				}
			}
		}
	}
	t.putBuf(rose)
}

// removeNeighbors reverses addNeighbors over the same neighbor sequence.
func (t *Tracker) removeNeighbors(nbrs []int32, now sim.Time, exclude int32) {
	fell := t.takeBuf()
	busy := t.busy
	if t.freeElig != nil {
		// Filtered recording, mirroring addNeighbors: a node that becomes
		// free-eligible during this batch's callbacks froze against a medium
		// those same callbacks made busy, so its delivery-time level check
		// (busy == 0) fails regardless — skipping it here changes nothing.
		fe := t.freeElig
		for _, node := range nbrs {
			if node == exclude {
				continue
			}
			c := busy[node] - 1
			busy[node] = c
			if c <= 0 {
				if c < 0 {
					panic(fmt.Sprintf("spectrum: negative busy count at node %d", node))
				}
				if bitHas(fe, node) && !t.puNear(node) {
					fell = append(fell, node)
				}
			}
		}
		for _, node := range fell {
			if bitHas(t.freeElig, node) && busy[node] == 0 {
				t.observer.SpectrumFree(node, now)
			}
		}
	} else {
		for _, node := range nbrs {
			if node == exclude {
				continue
			}
			c := busy[node] - 1
			busy[node] = c
			if c <= 0 {
				if c < 0 {
					panic(fmt.Sprintf("spectrum: negative busy count at node %d", node))
				}
				fell = append(fell, node)
			}
		}
		for _, node := range fell {
			// Re-verify: a reentrant registration during an earlier callback
			// may have re-raised this node's counter.
			if busy[node] == 0 {
				t.observer.SpectrumFree(node, now)
			}
		}
	}
	t.putBuf(fell)
}

// setSUTx records whether SU id is a registered transmitter.
func (t *Tracker) setSUTx(id int32, on bool) {
	switch {
	case on && !bitHas(t.suTx, id):
		bitSet(t.suTx, id)
		t.flipRows(t.txRow, id)
		t.nSuTx++
	case !on && bitHas(t.suTx, id):
		bitClear(t.suTx, id)
		t.flipRows(t.txRow, id)
		t.nSuTx--
	}
}

// AddSUTransmitter registers secondary node id as an active transmitter
// (the node's own counter is excluded). This is the indexed fast path: it
// walks id's precomputed CSR row.
func (t *Tracker) AddSUTransmitter(id int32, now sim.Time) {
	t.setSUTx(id, true)
	t.addNeighbors(t.suRow(id), TxSU, id, now)
}

// RemoveSUTransmitter reverses AddSUTransmitter.
func (t *Tracker) RemoveSUTransmitter(id int32, now sim.Time) {
	t.setSUTx(id, false)
	t.removeNeighbors(t.suRow(id), now, id)
}

// AddPUTransmitter registers primary user i as an active transmitter,
// delivering PUArrived to every secondary node within the protection range.
func (t *Tracker) AddPUTransmitter(i int32, now sim.Time) {
	if t.lazyPU {
		t.addPULazy(i, now)
		return
	}
	t.addNeighbors(t.puTab().Row(i), TxPU, -1, now)
}

// RemovePUTransmitter reverses AddPUTransmitter.
func (t *Tracker) RemovePUTransmitter(i int32, now sim.Time) {
	if t.lazyPU {
		t.removePULazy(i, now)
		return
	}
	t.removeNeighbors(t.puTab().Row(i), now, -1)
}

// addPULazy registers primary user i on the fully filtered fast path: it
// marks i active, delivers SpectrumBusy to the nodes of i's row whose
// total count crosses 0→1 — busy-eligible, no secondary contribution, no
// other active PU — and then PUArrived to the registered transmitters of
// the row, both in row order (see walk). Each PU strictly alternates add
// and remove (the PU models' bookkeeping); a double registration panics.
func (t *Tracker) addPULazy(i int32, now sim.Time) {
	t.bindCover()
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if t.active[w]&b != 0 {
		panic(fmt.Sprintf("spectrum: PU %d registered twice", i))
	}
	t.walk(i, true, now)
	t.active[w] |= b
	t.active0 = t.active[0]
	// Arrival pass, mirroring the eager kind==TxPU branch (the lazy path
	// implies arrivedTxOnly). Kept as a second pass so every busy
	// transition lands before any handoff abort reenters the tracker.
	if t.nSuTx > 0 {
		c := t.cover
		row, tx := c.table.Row(i), t.txRow[c.rowOff[i]:c.rowOff[i+1]]
		for w := range tx {
			for from := ^uint64(0); tx[w]&from != 0; {
				b := bits.TrailingZeros64(tx[w] & from)
				from = ^uint64(0) << (b + 1)
				t.observer.PUArrived(row[w<<6+b], now)
			}
		}
	}
}

// removePULazy reverses addPULazy: it marks i inactive and delivers
// SpectrumFree, in row order, to the free-eligible nodes of i's row whose
// total count returns to zero.
func (t *Tracker) removePULazy(i int32, now sim.Time) {
	t.bindCover()
	w, b := i>>6, uint64(1)<<(uint(i)&63)
	if t.active[w]&b == 0 {
		panic(fmt.Sprintf("spectrum: PU %d removed while inactive", i))
	}
	t.active[w] &^= b
	t.active0 = t.active[0]
	t.walk(i, false, now)
}

// walk delivers PU i's toggle transitions: SpectrumBusy when adding,
// SpectrumFree when removing, to each node of i's row, in row order, that is
// eligible for the callback, has no secondary contribution and is covered by
// no other active PU (i is never in the active set during a walk). It
// visits only the row positions set in eligRow, so a toggle costs
// O(row words + eligible nodes) instead of O(row). The result is
// bit-identical to walking every row position with a per-node PU cover
// count: a skipped node is exactly one whose callback would have returned
// immediately, and after every callback the walk re-syncs eligRow and
// re-reads it from the next position on, so a node that enters or leaves
// the eligible set inside a callback is treated as the per-node walk would
// treat it. PU queries made from inside the callbacks see the toggle
// applied up to the node being called back (see walkPU).
func (t *Tracker) walk(i int32, add bool, now sim.Time) {
	c := t.cover
	row, elig := c.table.Row(i), t.eligRow[c.rowOff[i]:c.rowOff[i+1]]
	dir := t.freeElig
	if add {
		dir = t.busyElig
	}
	busy := t.busy
	t.syncElig()
	t.walkPU, t.walkAdd, t.quick = i, add, false
	for w := range elig {
		for from := ^uint64(0); elig[w]&from != 0; {
			b := bits.TrailingZeros64(elig[w] & from)
			from = ^uint64(0) << (b + 1)
			r := w<<6 + b
			node := row[r]
			if !bitHas(dir, node) || busy[node] != 0 || t.activeCover(node) {
				continue
			}
			t.walkRank = int32(r)
			if add {
				t.observer.SpectrumBusy(node, now)
			} else {
				t.observer.SpectrumFree(node, now)
			}
			t.syncElig()
		}
	}
	t.walkPU, t.quick = -1, t.pw == 1
}

// AddTransmitter registers an active transmitter at an arbitrary position
// via a live grid range query. exclude names a secondary node whose own
// counter must not change (the transmitter itself when an SU transmits);
// pass -1 for primary transmitters. kind controls whether PUArrived fires
// and which sensing radius applies. Callers with a node- or PU-indexed
// transmitter should prefer the CSR fast path (AddSUTransmitter /
// AddPUTransmitter); this entry point remains for dynamic positions and
// radii.
func (t *Tracker) AddTransmitter(pos geom.Point, kind TxKind, exclude int32, now sim.Time) {
	if kind == TxSU && exclude >= 0 {
		t.setSUTx(exclude, true)
	}
	buf := t.takeBuf()
	buf = t.nw.SUGrid.Within(pos, t.rangeFor(kind), buf)
	t.addNeighbors(buf, kind, exclude, now)
	t.putBuf(buf)
}

// RemoveTransmitter unregisters a transmitter previously added with the
// same position, kind and exclusion.
func (t *Tracker) RemoveTransmitter(pos geom.Point, kind TxKind, exclude int32, now sim.Time) {
	if kind == TxSU && exclude >= 0 {
		t.setSUTx(exclude, false)
	}
	buf := t.takeBuf()
	buf = t.nw.SUGrid.Within(pos, t.rangeFor(kind), buf)
	t.removeNeighbors(buf, now, exclude)
	t.putBuf(buf)
}

// BlockNode raises node's busy counter by one without a spatial query; the
// aggregate PU model uses it to impose a node-local primary blocking period.
func (t *Tracker) BlockNode(node int32, now sim.Time) {
	t.busy[node]++
	if t.busy[node] == 1 && !t.puNear(node) {
		t.observer.SpectrumBusy(node, now)
	}
	t.observer.PUArrived(node, now)
}

// UnblockNode reverses BlockNode.
func (t *Tracker) UnblockNode(node int32, now sim.Time) {
	t.busy[node]--
	if t.busy[node] == 0 && !t.puNear(node) {
		t.observer.SpectrumFree(node, now)
	}
	if t.busy[node] < 0 {
		panic(fmt.Sprintf("spectrum: negative busy count at node %d", node))
	}
}
