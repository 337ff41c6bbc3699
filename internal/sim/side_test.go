package sim

import (
	"errors"
	"math/rand"
	"testing"
)

// sideModel is the reference for the side-calendar property test: every
// pending item — heap event or armed slot — with its (at, seq) key, in no
// particular structure. The earliest item is found by a linear scan.
type sideModel struct {
	seq   uint64
	items map[sideItem]hkey
}

// sideItem names a pending item: a heap event (slot < 0, id >= 0) or a side
// slot of a lane (id < 0).
type sideItem struct {
	lane, slot, id int
}

func (m *sideModel) add(it sideItem, at Time) {
	m.items[it] = hkey{at: at, seq: m.seq}
	m.seq++
}

// min returns the earliest item, restricted to one lane when lane >= 0.
func (m *sideModel) min(lane int) (sideItem, hkey, bool) {
	var best sideItem
	bk, found := headEmpty, false
	for it, k := range m.items {
		if (lane < 0 || it.lane == lane) && k.less(bk) {
			best, bk, found = it, k, true
		}
	}
	return best, bk, found
}

func (m *sideModel) pending(lane int) int {
	n := 0
	for it := range m.items {
		if lane < 0 || it.lane == lane {
			n++
		}
	}
	return n
}

// sideHarness drives an engine and the model through the same random
// operations: At/After events, cancels, and arming (or re-arming) side
// slots, from setup code and from inside event bodies.
type sideHarness struct {
	t      *testing.T
	e      *Engine
	m      *sideModel
	rnd    *rand.Rand
	cals   []SideCalendar
	slots  int
	timers []sideTimer
	nextID int
	fired  []sideItem
	steps  []uint64
	// lane is the lane the next firing must come from: the one stepped.
	lane int
}

// sideTimer is a heap event the harness may cancel.
type sideTimer struct {
	it sideItem
	tm Timer
}

// op applies one random scheduling operation in the current lane.
func (h *sideHarness) op(lane int) {
	switch h.rnd.Intn(4) {
	case 0, 1:
		id := h.nextID
		h.nextID++
		d := Time(h.rnd.Intn(20))
		it := sideItem{lane: lane, slot: -1, id: id}
		tm := h.e.After(d, func(now Time) { h.fire(it, now) })
		h.timers = append(h.timers, sideTimer{it, tm})
		h.m.add(it, h.e.Now()+d)
	case 2:
		slot := h.rnd.Intn(h.slots)
		d := Time(h.rnd.Intn(20))
		h.cals[lane].Arm(int32(slot), d)
		h.m.add(sideItem{lane: lane, slot: slot, id: -1}, h.e.Now()+d)
	default:
		// Cancel a random heap event, possibly of another lane, possibly
		// already fired or canceled (a no-op then).
		if len(h.timers) > 0 {
			st := h.timers[h.rnd.Intn(len(h.timers))]
			st.tm.Cancel()
			delete(h.m.items, st.it)
		}
	}
}

// fire is every item's body: it records the firing, checks it against the
// model, and schedules a few more operations in its own lane.
func (h *sideHarness) fire(it sideItem, now Time) {
	want, wk, ok := h.m.min(h.lane)
	if !ok || want != it || wk.at != now {
		h.t.Fatalf("fired %+v at %v, model expected %+v at %v", it, now, want, wk.at)
	}
	delete(h.m.items, it)
	if it.slot >= 0 && h.cals[it.lane].Armed(int32(it.slot)) {
		h.t.Fatalf("slot %+v reads armed while firing", it)
	}
	h.fired = append(h.fired, it)
	h.steps[it.lane]++
	if len(h.fired) < 400 {
		for n := h.rnd.Intn(3); n > 0; n-- {
			h.op(it.lane)
		}
	}
}

// check compares the engine's pending and step counts with the model.
func (h *sideHarness) check() {
	if got, want := h.e.Pending(), h.m.pending(-1); got != want {
		h.t.Fatalf("Pending = %d, model %d", got, want)
	}
	for l := range h.cals {
		if got, want := h.e.LanePending(l), h.m.pending(l); got != want {
			h.t.Fatalf("LanePending(%d) = %d, model %d", l, got, want)
		}
		if got := h.e.LaneSteps(l); got != h.steps[l] {
			h.t.Fatalf("LaneSteps(%d) = %d, fired %d", l, got, h.steps[l])
		}
	}
}

// TestSideCalendarProperty interleaves random At/After/Cancel operations
// with side-slot arms (re-arming armed slots included) over 1..16 lanes and
// requires every event and slot to fire in the reference (at, seq) order —
// global order under Step, lane order under StepInLane — with Pending,
// LanePending and LaneSteps agreeing with the model throughout, StopLane
// dropping exactly its lane's items, and Reset leaving a reusable engine
// whose old calendar handles are rejected.
func TestSideCalendarProperty(t *testing.T) {
	e := New()
	var slotFires, eventFires int
	for trial := 0; trial < 200; trial++ {
		rnd := rand.New(rand.NewSource(int64(trial)))
		lanes := 1 + rnd.Intn(16)
		h := &sideHarness{
			t: t, e: e, rnd: rnd,
			m:     &sideModel{items: map[sideItem]hkey{}},
			slots: 1 + rnd.Intn(8),
			steps: make([]uint64, lanes),
		}
		e.SetLanes(lanes)
		for l := 0; l < lanes; l++ {
			e.SetLane(l)
			l := l
			h.cals = append(h.cals, e.NewSideCalendar(h.slots, func(slot int32, now Time) {
				h.fire(sideItem{lane: l, slot: int(slot), id: -1}, now)
			}))
			for n := 1 + rnd.Intn(4); n > 0; n-- {
				h.op(l)
			}
		}
		stopped := -1
		for step := 0; ; step++ {
			if stopped < 0 && step == 50 && lanes > 1 {
				stopped = rnd.Intn(lanes)
				e.StopLane(stopped)
				for it := range h.m.items {
					if it.lane == stopped {
						delete(h.m.items, it)
					}
				}
				h.check()
			}
			if rnd.Intn(3) == 0 {
				// Step one lane of the harness's choosing: its own earliest
				// item must fire, whatever the other lanes hold.
				h.lane = rnd.Intn(lanes)
				_, _, ok := h.m.min(h.lane)
				if e.StepInLane(int32(h.lane)) != ok {
					t.Fatalf("trial %d: StepInLane(%d) disagrees with the model (pending %v)", trial, h.lane, ok)
				}
			} else {
				it, _, ok := h.m.min(-1)
				if !ok {
					if e.Step() {
						t.Fatalf("trial %d: Step ran an event the model does not have", trial)
					}
					break
				}
				h.lane = it.lane
				if !e.Step() {
					t.Fatalf("trial %d: Step found nothing, model has %d items", trial, h.m.pending(-1))
				}
			}
			h.check()
		}
		for _, it := range h.fired {
			if it.slot >= 0 {
				slotFires++
			} else {
				eventFires++
			}
		}
		e.Reset()
		if e.Pending() != 0 || e.Lanes() != 1 {
			t.Fatalf("trial %d: Reset left %d pending over %d lanes", trial, e.Pending(), e.Lanes())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("trial %d: arming a calendar from before Reset did not panic", trial)
				}
			}()
			h.cals[0].Arm(0, 1)
		}()
	}
	if slotFires < 1000 || eventFires < 1000 {
		t.Fatalf("only %d slot and %d event firings; the property test is too thin", slotFires, eventFires)
	}
}

// TestSideCalendarRules covers the calendar's error paths: a lane holds one
// calendar, arming in the past is rejected like At, and re-arming an armed
// slot moves it instead of adding a second firing.
func TestSideCalendarRules(t *testing.T) {
	e := New()
	var fired []int32
	c := e.NewSideCalendar(2, func(slot int32, now Time) { fired = append(fired, slot) })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second calendar on one lane accepted")
			}
		}()
		e.NewSideCalendar(1, func(int32, Time) {})
	}()
	c.Arm(0, 10)
	c.Arm(1, 5)
	c.Arm(0, 3) // moves slot 0 ahead of slot 1
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after re-arm, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 2 || fired[0] != 0 || fired[1] != 1 {
		t.Fatalf("fired %v, want [0 1]", fired)
	}
	if err := c.ArmAt(1, e.Now()-1); !errors.Is(err, ErrPast) {
		t.Fatalf("ArmAt in the past: %v, want ErrPast", err)
	}

	// NextLane and peek see calendar tops: lane 1's slot precedes lane 0's
	// heap event, and RunUntil stops before a slot past its deadline.
	e.Reset()
	e.SetLanes(2)
	e.At(7, func(Time) {})
	e.SetLane(1)
	c1 := e.NewSideCalendar(1, func(int32, Time) {})
	c1.Arm(0, 5)
	if got := e.NextLane(); got != 1 {
		t.Fatalf("NextLane = %d, want the calendar's lane 1", got)
	}
	if n := e.RunUntil(4); n != 0 {
		t.Fatalf("RunUntil(4) ran %d events before the slot at 5", n)
	}
	if n := e.RunUntil(6); n != 1 || e.Now() != 5 {
		t.Fatalf("RunUntil(6) ran %d events, clock %v; want the slot at 5", n, e.Now())
	}
}
