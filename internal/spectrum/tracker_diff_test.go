package spectrum

import (
	"fmt"
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// refTracker is the counter-walk tracker the eligibility-indexed primary-user
// path replaced, kept as the differential reference for the fully filtered
// configuration (FilterPUArrivals and FilterTransitions both on). Every PU
// toggle walks the PU's whole CSR row, keeping a per-node count of the
// active PUs covering it, and delivers each callback the filters let
// through as it goes. It reads the observer's eligibility bitsets.
type refTracker struct {
	suTab, puTab *netmodel.CSRTable
	obs          Observer
	busy         []int32
	cover        []int32
	suTx         []bool
	nSuTx        int
	be, fe       []uint64
}

func newRefTracker(t *testing.T, nw *netmodel.Network, puRange, suRange float64, obs *diffObserver) *refTracker {
	t.Helper()
	suTab, err := nw.SUNeighborTable(suRange)
	if err != nil {
		t.Fatal(err)
	}
	puTab, err := nw.PUNeighborTable(puRange)
	if err != nil {
		t.Fatal(err)
	}
	nn := nw.NumNodes()
	return &refTracker{
		suTab: suTab, puTab: puTab, obs: obs,
		busy: make([]int32, nn), cover: make([]int32, nn), suTx: make([]bool, nn),
		be: obs.be, fe: obs.fe,
	}
}

func (r *refTracker) puNear(node int32) bool     { return r.cover[node] > 0 }
func (r *refTracker) Busy(node int32) bool       { return r.busy[node] > 0 || r.puNear(node) }
func (r *refTracker) BusyCount(node int32) int32 { return r.busy[node] + r.cover[node] }
func (r *refTracker) AddPUTransmitter(i int32, now sim.Time) {
	nbrs := r.puTab.Row(i)
	for _, node := range nbrs {
		c := r.cover[node] + 1
		r.cover[node] = c
		if c == 1 && bitHas(r.be, node) && r.busy[node] == 0 {
			r.obs.SpectrumBusy(node, now)
		}
	}
	if r.nSuTx > 0 {
		for _, node := range nbrs {
			if r.suTx[node] {
				r.obs.PUArrived(node, now)
			}
		}
	}
}

func (r *refTracker) RemovePUTransmitter(i int32, now sim.Time) {
	for _, node := range r.puTab.Row(i) {
		c := r.cover[node] - 1
		r.cover[node] = c
		if c == 0 && bitHas(r.fe, node) && r.busy[node] == 0 {
			r.obs.SpectrumFree(node, now)
		}
	}
}

func (r *refTracker) AddSUTransmitter(id int32, now sim.Time) {
	if !r.suTx[id] {
		r.suTx[id] = true
		r.nSuTx++
	}
	var rose []int32
	for _, node := range r.suTab.Row(id) {
		if node == id {
			continue
		}
		r.busy[node]++
		if r.busy[node] == 1 && bitHas(r.be, node) && !r.puNear(node) {
			rose = append(rose, node)
		}
	}
	for _, node := range rose {
		if bitHas(r.be, node) && r.busy[node] > 0 {
			r.obs.SpectrumBusy(node, now)
		}
	}
}

func (r *refTracker) RemoveSUTransmitter(id int32, now sim.Time) {
	if r.suTx[id] {
		r.suTx[id] = false
		r.nSuTx--
	}
	var fell []int32
	for _, node := range r.suTab.Row(id) {
		if node == id {
			continue
		}
		r.busy[node]--
		if r.busy[node] == 0 && bitHas(r.fe, node) && !r.puNear(node) {
			fell = append(fell, node)
		}
	}
	for _, node := range fell {
		if bitHas(r.fe, node) && r.busy[node] == 0 {
			r.obs.SpectrumFree(node, now)
		}
	}
}

func (r *refTracker) BlockNode(node int32, now sim.Time) {
	r.busy[node]++
	if r.busy[node] == 1 && !r.puNear(node) {
		r.obs.SpectrumBusy(node, now)
	}
	r.obs.PUArrived(node, now)
}

func (r *refTracker) UnblockNode(node int32, now sim.Time) {
	r.busy[node]--
	if r.busy[node] == 0 && !r.puNear(node) {
		r.obs.SpectrumFree(node, now)
	}
}

// diffTarget is the tracker surface the differential script drives; both
// *Tracker and *refTracker implement it.
type diffTarget interface {
	Busy(node int32) bool
	BusyCount(node int32) int32
	AddPUTransmitter(i int32, now sim.Time)
	RemovePUTransmitter(i int32, now sim.Time)
	AddSUTransmitter(id int32, now sim.Time)
	RemoveSUTransmitter(id int32, now sim.Time)
	BlockNode(node int32, now sim.Time)
	UnblockNode(node int32, now sim.Time)
}

// Node states of the differential observer, a reduced MAC: a running node
// freezes on SpectrumBusy, a frozen node starts transmitting on
// SpectrumFree (reentrantly registering itself, and waking another node),
// and a transmitting node aborts on PUArrived (reentrantly unregistering
// itself).
const (
	dIdle uint8 = iota
	dRunning
	dFrozen
	dTx
)

// diffObserver records every callback together with the busy count of every
// node at that moment, so reentrant queries that see a partially applied
// toggle are compared too. be and fe are its eligibility bitsets.
type diffObserver struct {
	tr     diffTarget
	st     []uint8
	be, fe []uint64
	log    []int32
}

func newDiffObserver(n int) *diffObserver {
	return &diffObserver{st: make([]uint8, n), be: make([]uint64, BitsetWords(n)), fe: make([]uint64, BitsetWords(n))}
}

func (o *diffObserver) set(node int32, st uint8) {
	o.st[node] = st
	bitClear(o.be, node)
	bitClear(o.fe, node)
	switch st {
	case dRunning:
		bitSet(o.be, node)
	case dFrozen:
		bitSet(o.fe, node)
	}
}

func (o *diffObserver) record(kind int32, node int32) {
	o.log = append(o.log, -kind, node)
	for v := range o.st {
		o.log = append(o.log, o.tr.BusyCount(int32(v)))
	}
}

func (o *diffObserver) SpectrumBusy(node int32, _ sim.Time) {
	o.record(1, node)
	if o.st[node] == dRunning {
		o.set(node, dFrozen)
	}
}

func (o *diffObserver) SpectrumFree(node int32, now sim.Time) {
	o.record(2, node)
	if o.st[node] == dFrozen {
		o.set(node, dTx)
		o.tr.AddSUTransmitter(node, now)
		o.record(4, node)
		// Wake another node, as a transmission start hook handing it a
		// packet would: it freezes if its medium reads busy — which, inside
		// a PU removal, still counts the PU for nodes later in the row — and
		// so may become eligible for the rest of the walk.
		o.contend((node*7 + 3) % int32(len(o.st)))
	}
}

// contend starts an idle node contending, frozen at once on a busy medium.
func (o *diffObserver) contend(node int32) {
	if o.st[node] != dIdle {
		return
	}
	if o.tr.Busy(node) {
		o.set(node, dFrozen)
	} else {
		o.set(node, dRunning)
	}
	o.record(7, node)
}

func (o *diffObserver) PUArrived(node int32, now sim.Time) {
	o.record(3, node)
	if o.st[node] == dTx {
		o.tr.RemoveSUTransmitter(node, now)
		o.set(node, dIdle)
		o.record(5, node)
	}
}

// runDiffScript drives one random script of PU toggles, SU registrations,
// contention starts and node blocks through target and returns the
// observer's log. Script choices read only the observer's own state, so two
// targets that behave identically see identical scripts.
func runDiffScript(seed uint64, nw *netmodel.Network, obs *diffObserver, tr diffTarget, steps int) []int32 {
	src := rng.New(seed)
	nn, np := int32(nw.NumNodes()), int32(len(nw.PU))
	active := make([]bool, np)
	blocks := make([]int32, nn)
	for step := 0; step < steps; step++ {
		now := sim.Time(step)
		v := int32(src.Intn(int(nn)))
		switch op := src.Intn(10); {
		case op < 4 && np > 0:
			i := int32(src.Intn(int(np)))
			if active[i] {
				tr.RemovePUTransmitter(i, now)
			} else {
				tr.AddPUTransmitter(i, now)
			}
			active[i] = !active[i]
		case op < 6:
			obs.contend(v)
		case op == 6:
			// Expire or finish: a running node on a free medium transmits, a
			// transmitting node unregisters.
			switch {
			case obs.st[v] == dRunning && !tr.Busy(v):
				obs.set(v, dTx)
				tr.AddSUTransmitter(v, now)
			case obs.st[v] == dTx:
				tr.RemoveSUTransmitter(v, now)
				obs.set(v, dIdle)
			}
		case op == 7:
			if obs.st[v] != dTx {
				obs.set(v, dIdle)
			}
		case op == 8:
			blocks[v]++
			tr.BlockNode(v, now)
		default:
			if blocks[v] > 0 {
				blocks[v]--
				tr.UnblockNode(v, now)
			}
		}
		obs.record(6, v)
	}
	return obs.log
}

// TestPUToggleMatchesCounterWalk is the differential test of the
// eligibility-indexed PU path: on random deployments (n <= 60 secondary
// nodes, 1, 4 or 65 primary users — the last exercising multi-word PU
// masks) it drives identical random scripts through the tracker and through
// the counter-walk reference, with an observer that reenters on SpectrumFree
// (starting a transmission) and on PUArrived (aborting one), and requires
// identical callback sequences and busy counts throughout.
func TestPUToggleMatchesCounterWalk(t *testing.T) {
	src := rng.New(99)
	for trial := 0; trial < 60; trial++ {
		p := netmodel.ScaledDefaultParams()
		p.NumSU = 2 + src.Intn(59)
		p.NumPU = []int{1, 4, 65}[trial%3]
		p.Area = 20 + 40*src.Float64()
		nw, err := netmodel.Deploy(p, src.ChildN("deploy", trial))
		if err != nil {
			t.Fatal(err)
		}
		puRange := 8 + 20*src.Float64()
		suRange := 8 + 20*src.Float64()
		seed := src.Uint64()
		name := fmt.Sprintf("trial %d (n=%d N=%d area=%.1f pu=%.1f su=%.1f)", trial, nw.NumNodes(), p.NumPU, p.Area, puRange, suRange)

		refObs := newDiffObserver(nw.NumNodes())
		ref := newRefTracker(t, nw, puRange, suRange, refObs)
		refObs.tr = ref
		want := runDiffScript(seed, nw, refObs, ref, 400)

		obs := newDiffObserver(nw.NumNodes())
		tr, err := NewTracker(nw, puRange, suRange, obs)
		if err != nil {
			t.Fatal(err)
		}
		tr.FilterPUArrivals(true)
		tr.FilterTransitions(obs.be, obs.fe)
		obs.tr = tr
		got := runDiffScript(seed, nw, obs, tr, 400)

		for k := range min(len(got), len(want)) {
			if got[k] != want[k] {
				t.Fatalf("%s: logs diverge at entry %d: got %d, reference %d", name, k, got[k], want[k])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: log lengths %d vs reference %d", name, len(got), len(want))
		}
	}
}
