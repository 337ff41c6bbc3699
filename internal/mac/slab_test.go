package mac

import (
	"reflect"
	"testing"

	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// TestSlabBackedMatchesFresh: a MAC whose dense arrays live in a batch slab
// lane must behave bit-identically to one with private allocations — same
// deliveries, same tx timeline — because the slab only changes where the
// bytes live, never what they hold. The slab is deliberately dirtied first,
// as a prior batch would leave it.
func TestSlabBackedMatchesFresh(t *testing.T) {
	const n = 6
	run := func(mutate func(*Config)) *harness {
		nw := lineNetwork(t, n, nil)
		h := newHarness(t, nw, lineParents(n), mutate)
		h.run(t, n, 10*sim.Second)
		return h
	}
	fresh := run(nil)
	slabs := NewSlabs(3, n+1)
	for lane := 0; lane < 3; lane++ {
		for i := range slabs.sts {
			slabs.sts[i] = stateBackoffFrozen
			slabs.trkBusy[i] = 9
		}
		for i := range slabs.busyElig {
			slabs.busyElig[i] = ^uint64(0)
			slabs.freeElig[i] = ^uint64(0)
			slabs.trkSuTx[i] = ^uint64(0)
		}
		view := slabs.Lane(lane)
		backed := run(func(cfg *Config) { cfg.Slab = view })
		if !reflect.DeepEqual(backed.deliveries, fresh.deliveries) {
			t.Fatalf("lane %d: slab-backed deliveries diverge:\n%v\nvs fresh\n%v",
				lane, backed.deliveries, fresh.deliveries)
		}
		if !reflect.DeepEqual(backed.txStarts, fresh.txStarts) ||
			!reflect.DeepEqual(backed.txEnds, fresh.txEnds) {
			t.Fatalf("lane %d: slab-backed tx timeline diverges", lane)
		}
		// The MAC must actually be using the slab memory: the dirty
		// sentinel values must have been overwritten in place.
		if &backed.mac.sts[0] != &view.sts[0] {
			t.Fatalf("lane %d: MAC did not adopt the slab backing", lane)
		}
		for i, b := range view.tracker.Busy {
			if b == 9 {
				t.Fatalf("lane %d: tracker left dirty slab counter at node %d — private backing?", lane, i)
			}
		}
	}
}

// TestSlabRenewKeepsBacking: Renew with the same slab view keeps the
// adopted arrays in place; Renew with a different lane view rebuilds and
// adopts the new one.
func TestSlabRenewKeepsBacking(t *testing.T) {
	const n = 4
	nw := lineNetwork(t, n, nil)
	slabs := NewSlabs(2, n+1)
	h := newHarness(t, nw, lineParents(n), func(cfg *Config) { cfg.Slab = slabs.Lane(0) })
	cfg := h.mac.cfg
	m2, err := Renew(h.mac, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != h.mac {
		t.Fatal("Renew with unchanged slab rebuilt instead of reusing")
	}
	if &m2.sts[0] != &slabs.Lane(0).sts[0] {
		t.Fatal("Renew dropped the slab backing")
	}
	cfg.Slab = slabs.Lane(1)
	m3, err := Renew(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m2 {
		t.Fatal("Renew with a different slab must fall back to New")
	}
	if &m3.sts[0] != &slabs.Lane(1).sts[0] {
		t.Fatal("rebuilt MAC did not adopt the new lane view")
	}
}

// TestSlabSizeMismatch: a lane view sized for the wrong node count is
// rejected at construction.
func TestSlabSizeMismatch(t *testing.T) {
	const n = 4
	nw := lineNetwork(t, n, nil)
	slabs := NewSlabs(1, n) // network has n+1 nodes (base station)
	_, err := New(Config{
		Network:      nw,
		Parent:       lineParents(n),
		PUSenseRange: 39,
		SUSenseRange: 39,
		Engine:       sim.New(),
		Rand:         rng.New(7),
		Slab:         slabs.Lane(0),
	})
	if err == nil {
		t.Fatal("mis-sized slab accepted")
	}
}
