// Package sim is a deterministic discrete-event simulation engine. Virtual
// time is an int64 microsecond counter; events scheduled for equal times
// fire in scheduling order (a strictly increasing sequence number breaks
// ties), so a run is exactly reproducible from its inputs.
//
// The engine is intentionally single-threaded: cognitive-radio MAC behavior
// depends on a total order of carrier-sense observations, and a
// deterministic order is what makes the reproduction's integration tests
// meaningful. Parallelism lives one level up (independent repetitions of an
// experiment run on separate engines; see internal/experiment).
//
// The event queue is a concrete indexed 4-ary heap over a pooled entry
// arena: entries live in a flat slice, freed slots are recycled through a
// free list, and the heap orders int32 arena indices. The (time, sequence)
// sort keys are mirrored in a dense per-position key array, so sifts compare
// against contiguous 16-byte keys (one cache line covers a 4-ary node's
// children) instead of chasing arena entries. Scheduling an event in steady
// state therefore allocates nothing, and heap maintenance runs without
// interface-method dispatch. Because (time, sequence) is a strict total
// order, the pop order — and with it every simulation result — is identical
// to the binary container/heap implementation this replaced.
//
// # Lanes
//
// The engine can multiplex B independent runs ("lanes") over one arena and
// one virtual-time order: SetLanes(B) gives each lane its own heap, clock
// and step counter, every entry carries the lane it belongs to, and events
// scheduled from inside an event body inherit the running event's lane — so
// simulation code (MAC, spectrum models) needs no lane awareness at all.
// Step always executes the globally earliest (time, sequence) event, which
// is exactly the order one shared heap would produce, but per-lane heaps
// keep sift depth independent of B. Because lanes share nothing mutable,
// each lane's event order equals the order the same run would see on a
// private engine, which is what makes batched execution bit-identical to
// sequential runs (see internal/core's lane equivalence tests). The default
// single-lane mode bypasses all lane bookkeeping.
//
// # Side calendars
//
// A fixed population of recurring timers — one activity process per primary
// user, each re-arming itself every time it fires — would otherwise flow
// through the arena and the event heap, paying a slot allocation, a push and
// a pop per firing. NewSideCalendar gives the current lane a side calendar
// instead: one slot per timer, kept off the event heap in a small indexed
// heap of its own, with re-arming a slot costing O(log slots) and no arena
// traffic. A slot's key is (at, seq) with seq drawn from the same counter as
// At, and every step takes the smaller of the lane's heap top and calendar
// top. Keys never collide across the two structures, so the global
// (time, sequence) pop order — and with it every tie-break and every
// simulation result — is exactly what the same timers scheduled with After
// would produce. Armed slots count as pending events (Pending, LanePending)
// and as executed steps when they fire; StopLane disarms a lane's calendar
// and Reset removes every calendar.
package sim

import (
	"errors"
	"math"
	"time"
)

// Time is virtual time in microseconds since the start of the run.
type Time int64

// Common time constants.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000

	// MaxTime is the largest representable virtual time.
	MaxTime Time = math.MaxInt64
)

// FromDuration converts a wall-clock duration to virtual microseconds,
// truncating sub-microsecond precision.
func FromDuration(d time.Duration) Time { return Time(d.Microseconds()) }

// Duration converts virtual time to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// Seconds returns t in seconds as a float64.
func (t Time) Seconds() float64 { return float64(t) / 1e6 }

// Slots returns how many whole slots of length slot have fully elapsed at t.
func (t Time) Slots(slot Time) int64 { return int64(t / slot) }

// EventFunc is an event body; it runs with the engine clock set to the
// event's scheduled time.
type EventFunc func(now Time)

// Timer is a handle to a scheduled event, usable to cancel it. The handle
// stays valid (and inert) after the event fires or is canceled: the arena
// slot it names is generation-checked, so a handle to a recycled slot never
// touches the slot's new occupant.
type Timer struct {
	eng *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled timer is a no-op. Cancel on a zero Timer is a no-op.
//
// Cancellation is lazy: the entry is only marked dead and the pop loop
// discards it when it reaches the top of its heap. Canceled timers are
// overwhelmingly near-future backoffs (carrier-sense freezes), so dead
// entries surface within a contention window and never pile up, while the
// cancel itself — the single hottest queue operation in a collection run —
// costs two writes instead of an O(log n) heap repair.
func (t Timer) Cancel() {
	e := t.eng
	if e == nil {
		return
	}
	en := &e.arena[t.idx]
	if en.gen != t.gen || en.fn == nil {
		return // already fired or already canceled
	}
	en.fn = nil
	e.lanes[en.lane].live--
}

// Active reports whether the event is still pending.
func (t Timer) Active() bool {
	if t.eng == nil {
		return false
	}
	en := &t.eng.arena[t.idx]
	return en.gen == t.gen && en.fn != nil
}

// When returns the scheduled fire time (meaningful only while Active).
func (t Timer) When() Time {
	if t.eng == nil {
		return 0
	}
	en := &t.eng.arena[t.idx]
	if en.gen != t.gen {
		return 0
	}
	return en.at
}

// entry is one arena slot. gen increments every time the slot is released to
// the free list, invalidating outstanding Timer handles. A nil fn while the
// entry is still queued marks a lazily canceled event, discarded when it
// reaches the top of its heap. The (time, sequence) sort key lives in the
// lane's dense key array; at is duplicated here only for Timer.When and the
// past-scheduling check.
type entry struct {
	at   Time
	fn   EventFunc
	gen  uint32
	lane int32
}

// hkey is a heap sort key: events fire in (at, seq) order. Keys are stored
// densely by heap position so sift comparisons stay on hot cache lines.
type hkey struct {
	at  Time
	seq uint64
}

func (k hkey) less(o hkey) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// headEmpty marks an empty lane in the head index: it compares after every
// real key (no schedulable event reaches the maximal sequence number).
var headEmpty = hkey{at: MaxTime, seq: ^uint64(0)}

// laneQ is one lane's event queue and clock. live counts queued events that
// have not been lazily canceled; the heap may additionally hold dead entries
// awaiting their pop.
type laneQ struct {
	heap  []int32
	keys  []hkey
	live  int32
	now   Time
	steps uint64
	side  sideQ
}

// head returns the lane's earliest key across its event heap (a lazily
// canceled top included) and its side calendar; headEmpty when both are
// empty.
func (l *laneQ) head() hkey {
	k := headEmpty
	if len(l.keys) > 0 {
		k = l.keys[0]
	}
	if len(l.side.keys) > 0 && l.side.keys[0].less(k) {
		k = l.side.keys[0]
	}
	return k
}

// empty reports whether the lane has nothing queued, dead heap entries
// included.
func (l *laneQ) empty() bool { return len(l.heap) == 0 && len(l.side.heap) == 0 }

// Engine is the event queue and virtual clock.
type Engine struct {
	now    Time
	seq    uint64
	nsteps uint64

	// arena holds every entry ever allocated; free lists recycled slots.
	// Each lane owns a 4-ary min-heap of arena indices ordered by
	// (at, seq); lane 0 is the whole queue in single-lane mode.
	arena []entry
	free  []int32
	lanes []laneQ

	// nlanes and curLane are the lane multiplex state: At tags entries
	// with curLane, Step restores it from the entry it pops. Cross-lane
	// selection reads each lane's keys[0] directly — the batch runner only
	// re-selects once per burst, so a per-event head mirror would cost more
	// in push/pop upkeep than the scan it saves.
	nlanes  int32
	curLane int32

	// Cooperative interrupt: poll is consulted every pollEvery executed
	// events; a non-nil error stops the engine (see SetInterrupt).
	poll          func() error
	pollEvery     uint64
	pollCountdown uint64
	interruptErr  error
}

// New returns an engine with the clock at zero and an empty queue.
func New() *Engine {
	return &Engine{lanes: make([]laneQ, 1), nlanes: 1}
}

// NewWithCapacity returns an engine whose arena and heap are pre-sized for n
// concurrently pending events, so a simulation with a known timer population
// (one backoff per node, one toggle per PU) never grows them mid-run.
func NewWithCapacity(n int) *Engine {
	if n < 0 {
		n = 0
	}
	return &Engine{
		arena:  make([]entry, 0, n),
		free:   make([]int32, 0, n),
		lanes:  []laneQ{{heap: make([]int32, 0, n), keys: make([]hkey, 0, n)}},
		nlanes: 1,
	}
}

// Reset returns the engine to its initial state — clock at zero, empty
// queues, single-lane mode, no interrupt poll, no side calendars — while
// keeping the arena, free-list, and heap backing arrays for the next run.
// Every arena slot's generation is bumped, so Timer handles issued before
// the Reset go permanently inert instead of aliasing events scheduled after
// it; SideCalendar handles issued before it panic if used. The free
// list is rebuilt so slots are handed out in ascending index order, exactly
// as a fresh engine appends them; since event order depends only on
// (time, sequence), a reset engine is observationally identical to one
// returned by New.
func (e *Engine) Reset() {
	for i := range e.arena {
		en := &e.arena[i]
		en.fn = nil
		en.gen++
	}
	e.free = e.free[:0]
	for i := len(e.arena) - 1; i >= 0; i-- {
		e.free = append(e.free, int32(i))
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		l.heap = l.heap[:0]
		l.keys = l.keys[:0]
		l.live = 0
		l.now = 0
		l.steps = 0
		l.side.uninstall()
	}
	e.nlanes = 1
	e.curLane = 0
	e.now = 0
	e.seq = 0
	e.nsteps = 0
	e.poll = nil
	e.pollEvery = 0
	e.pollCountdown = 0
	e.interruptErr = nil
}

// Now returns the current virtual time: the time of the most recently
// executed event (across all lanes).
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events across all lanes. Lazily
// canceled events do not count: they can never fire.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.lanes[:e.nlanes] {
		n += int(e.lanes[i].live)
	}
	return n
}

// Steps returns the number of events executed so far (across all lanes).
func (e *Engine) Steps() uint64 { return e.nsteps }

// SetLanes configures the engine to multiplex b independent lanes; it must
// be called on a fresh or reset engine, before any events are scheduled.
// Lane backing arrays from earlier batched runs are retained and reused.
// b <= 1 leaves the engine in ordinary single-lane mode.
func (e *Engine) SetLanes(b int) {
	if e.seq != 0 || e.Pending() != 0 {
		panic("sim: SetLanes on an engine with scheduled events")
	}
	if b < 1 {
		b = 1
	}
	for len(e.lanes) < b {
		e.lanes = append(e.lanes, laneQ{})
	}
	e.nlanes = int32(b)
	e.curLane = 0
}

// Lanes returns the configured lane count.
func (e *Engine) Lanes() int { return int(e.nlanes) }

// SetLane selects the lane that subsequently scheduled events belong to.
// It is needed only while setting a lane's simulation up; once events run,
// events scheduled from inside an event body inherit that event's lane.
func (e *Engine) SetLane(lane int) {
	if lane < 0 || lane >= int(e.nlanes) {
		panic("sim: SetLane out of range")
	}
	e.curLane = int32(lane)
}

// StopLane discards every pending event of the given lane (releasing their
// arena slots and invalidating their timers) and disarms every slot of its
// side calendar, so a finished lane's re-arming processes — PU activity
// toggles never stop on their own — cannot hold the batch loop open. Other
// lanes are unaffected.
func (e *Engine) StopLane(lane int) {
	l := &e.lanes[lane]
	for _, idx := range l.heap {
		e.release(idx)
	}
	l.heap = l.heap[:0]
	l.keys = l.keys[:0]
	l.live = 0
	l.side.disarmAll()
}

// LaneNow returns the time of the lane's most recently executed event.
func (e *Engine) LaneNow(lane int) Time { return e.lanes[lane].now }

// LaneSteps returns how many events the lane has executed, matching what
// Steps would report for the same run on a private engine.
func (e *Engine) LaneSteps(lane int) uint64 { return e.lanes[lane].steps }

// LanePending returns the number of events queued in the lane, not counting
// lazily canceled ones.
func (e *Engine) LanePending(lane int) int { return int(e.lanes[lane].live) }

// SetInterrupt installs a cooperative cancellation poll: fn is consulted
// every `every` executed events (every <= 0 means every event), and the
// first non-nil error it returns stops the engine — Step and RunUntil
// refuse to execute further events and the error is retained for
// InterruptErr. Passing context.Context.Err as fn gives a simulation run
// cancellation and wall-clock deadlines at event-loop granularity without
// any per-event overhead beyond a counter decrement. A nil fn removes the
// poll; installing a new poll clears a previously retained error.
func (e *Engine) SetInterrupt(every uint64, fn func() error) {
	if every == 0 {
		every = 1
	}
	e.poll = fn
	e.pollEvery = every
	e.pollCountdown = every
	e.interruptErr = nil
}

// InterruptErr returns the error that interrupted the engine, or nil when
// no interrupt poll has fired. A stopped engine stays stopped until
// SetInterrupt is called again.
func (e *Engine) InterruptErr() error { return e.interruptErr }

// ErrPast is returned by At when scheduling before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

var errNilEvent = errors.New("sim: nil event function")

// At schedules fn at absolute virtual time t; t may equal Now (the event
// fires after all currently queued events at the same time). In multi-lane
// mode the event joins the current lane — the lane of the running event
// body, or the one selected with SetLane during setup.
func (e *Engine) At(t Time, fn EventFunc) (Timer, error) {
	if t < e.now {
		return Timer{}, ErrPast
	}
	if fn == nil {
		return Timer{}, errNilEvent
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.arena = append(e.arena, entry{})
		idx = int32(len(e.arena) - 1)
	}
	lane := e.curLane
	en := &e.arena[idx]
	en.at = t
	en.fn = fn
	en.lane = lane
	l := &e.lanes[lane]
	e.heapPush(l, idx, hkey{at: t, seq: e.seq})
	l.live++
	e.seq++
	return Timer{eng: e, idx: idx, gen: en.gen}, nil
}

// After schedules fn d microseconds from now; negative d is clamped to 0.
func (e *Engine) After(d Time, fn EventFunc) Timer {
	if d < 0 {
		d = 0
	}
	t, err := e.At(e.now+d, fn)
	if err != nil {
		// Unreachable: e.now+d >= e.now and fn nil-ness is the caller's
		// bug; surface it loudly in tests.
		panic(err)
	}
	return t
}

// release returns arena slot idx to the free list, bumping its generation so
// outstanding Timer handles to it go inert.
func (e *Engine) release(idx int32) {
	en := &e.arena[idx]
	en.fn = nil
	en.gen++
	e.free = append(e.free, idx)
}

// Step executes the single earliest pending event (by (time, sequence),
// across all lanes) and returns true, or returns false when the queue is
// empty. When an interrupt poll (SetInterrupt) has fired — now or on an
// earlier call — Step executes nothing and returns false; distinguish the
// interrupted case from queue exhaustion via InterruptErr.
func (e *Engine) Step() bool {
	_, ok := e.StepLane()
	return ok
}

// StepLane is Step exposing which lane the executed event belonged to
// (always 0 in single-lane mode). The batch runner uses it to apply
// per-lane completion checks after each event.
func (e *Engine) StepLane() (int32, bool) {
	if e.interruptErr != nil {
		return -1, false
	}
	if e.poll != nil {
		e.pollCountdown--
		if e.pollCountdown == 0 {
			e.pollCountdown = e.pollEvery
			if err := e.poll(); err != nil {
				e.interruptErr = err
				return -1, false
			}
		}
	}
	// Re-scan after discarding a dead top: the lane's next event may now be
	// later than another lane's, and StepLane promises global (time, seq)
	// order over live events.
	for {
		var lane int32
		if e.nlanes == 1 {
			lane = 0
			if e.lanes[0].empty() {
				return -1, false
			}
		} else {
			lane = -1
			best := headEmpty
			for i := range e.lanes[:e.nlanes] {
				if k := e.lanes[i].head(); k.less(best) {
					lane, best = int32(i), k
				}
			}
			if lane < 0 {
				return -1, false
			}
		}
		if e.popHead(lane) {
			return lane, true
		}
	}
}

// popHead removes the earliest entry of lane — the top of its event heap or
// of its side calendar, whichever key is smaller — and runs it. It returns
// false, having run nothing, when the entry was a lazily canceled event. The
// lane must not be empty.
func (e *Engine) popHead(lane int32) bool {
	l := &e.lanes[lane]
	if s := &l.side; len(s.keys) > 0 && (len(l.keys) == 0 || s.keys[0].less(l.keys[0])) {
		at := s.keys[0].at
		e.enter(l, lane, at)
		s.fire(at)
		return true
	}
	idx := e.heapPop(l)
	en := &e.arena[idx]
	fn := en.fn
	at := en.at
	// Recycle the slot before running the body: the event is no longer
	// pending, its Timer handles must read inactive, and the body is free to
	// reuse the slot for the events it schedules.
	e.release(idx)
	if fn == nil {
		return false // lazily canceled; discard
	}
	e.enter(l, lane, at)
	fn(at)
	return true
}

// enter advances the clocks and step counters for an event of lane firing at
// at, and makes lane the one events scheduled by its body inherit.
func (e *Engine) enter(l *laneQ, lane int32, at Time) {
	l.live--
	e.now = at
	e.nsteps++
	l.now = at
	l.steps++
	e.curLane = lane
}

// NextLane returns the lane holding the globally earliest pending event, or
// -1 when every lane's queue is empty (always 0 or -1 in single-lane mode).
// Together with StepInLane it lets a batch runner schedule lanes in bursts:
// lanes are independent simulations, so executing a run of one lane's events
// before re-scanning keeps that lane's state hot in cache without changing
// any lane's own event order.
func (e *Engine) NextLane() int32 {
	if e.nlanes == 1 {
		if e.lanes[0].empty() {
			return -1
		}
		return 0
	}
	lane := int32(-1)
	best := headEmpty
	for i := range e.lanes[:e.nlanes] {
		if k := e.lanes[i].head(); k.less(best) {
			lane, best = int32(i), k
		}
	}
	return lane
}

// StepInLane executes lane's earliest pending event and returns true, or
// returns false when that lane's queue is empty or an interrupt poll has
// fired (distinguish via InterruptErr). It skips the cross-lane selection
// scan entirely — the caller chose the lane, typically via NextLane.
func (e *Engine) StepInLane(lane int32) bool {
	if e.interruptErr != nil {
		return false
	}
	if e.poll != nil {
		e.pollCountdown--
		if e.pollCountdown == 0 {
			e.pollCountdown = e.pollEvery
			if err := e.poll(); err != nil {
				e.interruptErr = err
				return false
			}
		}
	}
	l := &e.lanes[lane]
	for !l.empty() {
		if e.popHead(lane) {
			return true
		}
		// lazily canceled; discard and retry within the lane
	}
	return false
}

// RunUntil executes events until the queue is exhausted, an interrupt poll
// fires (see SetInterrupt and InterruptErr), or the next event is scheduled
// strictly after deadline; the clock never passes deadline. It returns the
// number of events executed.
func (e *Engine) RunUntil(deadline Time) uint64 {
	start := e.nsteps
	for {
		next, ok := e.peek()
		if !ok {
			break
		}
		if next > deadline {
			break
		}
		if !e.Step() {
			break
		}
	}
	return e.nsteps - start
}

// Run executes events until the queue is exhausted and returns the number
// executed. Use RunUntil with a budget when events can re-arm forever.
func (e *Engine) Run() uint64 {
	return e.RunUntil(MaxTime)
}

// peek returns the fire time of the earliest pending live entry without
// executing anything. It discards lazily canceled entries sitting on heap
// tops on the way, so the reported time is one an actual event will fire at.
func (e *Engine) peek() (Time, bool) {
	best := headEmpty
	for i := range e.lanes[:e.nlanes] {
		l := &e.lanes[i]
		e.dropDead(l)
		if k := l.head(); k.less(best) {
			best = k
		}
	}
	if best == headEmpty {
		return 0, false
	}
	return best.at, true
}

// dropDead pops lazily canceled entries off the lane's heap top, so the
// lane's keys[0] is the key of an event that will actually fire.
func (e *Engine) dropDead(l *laneQ) {
	for len(l.heap) > 0 && e.arena[l.heap[0]].fn == nil {
		e.release(e.heapPop(l))
	}
}

// The heap is 4-ary: parent of i is (i-1)/4, children are 4i+1..4i+4. A
// wider node halves the tree height against a binary heap, and because the
// four children's keys are adjacent in the dense key array, one comparison
// round reads a single cache line — the right trade when the queue holds one
// timer per node at n in the thousands.

func (e *Engine) heapPush(l *laneQ, idx int32, k hkey) {
	l.heap = append(l.heap, idx)
	l.keys = append(l.keys, k)
	e.siftUp(l, len(l.heap)-1)
}

func (e *Engine) heapPop(l *laneQ) int32 {
	h := l.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	l.keys[0] = l.keys[last]
	l.heap = h[:last]
	l.keys = l.keys[:last]
	if last > 0 {
		e.siftDown(l, 0)
	}
	return top
}

// Both sifts move a hole instead of swapping: the displaced element's key is
// loaded once into registers, ancestors/children shift into the hole, and the
// element lands in its final slot with a single write. The comparisons — and
// therefore the resulting heap layout — are exactly those of the classic
// swap-at-every-level formulation.

func (e *Engine) siftUp(l *laneQ, i int) {
	h, k := l.heap, l.keys
	moving, mk := h[i], k[i]
	for i > 0 {
		p := (i - 1) / 4
		if !mk.less(k[p]) {
			break
		}
		h[i], k[i] = h[p], k[p]
		i = p
	}
	h[i], k[i] = moving, mk
}

func (e *Engine) siftDown(l *laneQ, i int) {
	h, k := l.heap, l.keys
	n := len(h)
	moving, mk := h[i], k[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		bk := k[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if k[c].less(bk) {
				best, bk = c, k[c]
			}
		}
		if !bk.less(mk) {
			break
		}
		h[i], k[i] = h[best], k[best]
		i = best
	}
	h[i], k[i] = moving, mk
}
