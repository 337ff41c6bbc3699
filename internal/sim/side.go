package sim

// SideCalendar is a handle to a lane's side calendar: a fixed population of
// recurring timers, slots 0..n-1, each either idle or armed for one firing.
// Slots are kept off the event heap (see the package documentation), so
// re-arming one costs O(log n) and touches no arena slot. The handle is a
// small value; copies refer to the same calendar. It goes stale at the
// engine's next Reset, after which using it panics.
type SideCalendar struct {
	eng  *Engine
	lane int32
	gen  uint32
}

// sideQ is one lane's side calendar: an indexed 4-ary min-heap of slot ids
// ordered by (at, seq), with the keys mirrored densely by heap position like
// the event heap's, and pos[slot] locating each armed slot (-1 when idle).
// gen counts installs and uninstalls, invalidating handles across Reset.
//
// firing is the slot whose body is running (-1 otherwise). It stays at the
// heap root, idle but unpopped, while its body runs: a body that re-arms its
// own slot — the recurring-timer pattern — then costs one sift-down from the
// root instead of a pop and a push. Any key armed meanwhile is later than
// the root's (a time no earlier, a larger sequence number), so the heap
// order holds; settle pops the root if the body did not re-arm it.
type sideQ struct {
	fn     func(slot int32, now Time)
	heap   []int32
	keys   []hkey
	pos    []int32
	gen    uint32
	firing int32
}

// NewSideCalendar installs a side calendar of n slots on the current lane —
// the lane of the running event body, or the one selected with SetLane
// during setup — and returns its handle. Every slot starts idle. When an
// armed slot's time comes, the slot goes idle and fn runs with the slot
// number and the firing time, in the same global (time, sequence) order as
// every other event; fn typically re-arms the slot. A lane holds at most one
// side calendar between Resets.
func (e *Engine) NewSideCalendar(n int, fn func(slot int32, now Time)) SideCalendar {
	if fn == nil {
		panic(errNilEvent)
	}
	s := &e.lanes[e.curLane].side
	if s.fn != nil {
		panic("sim: lane already has a side calendar")
	}
	s.fn = fn
	s.gen++
	s.firing = -1
	if cap(s.pos) < n {
		s.pos = make([]int32, n)
		s.heap = make([]int32, 0, n)
		s.keys = make([]hkey, 0, n)
	}
	s.pos = s.pos[:n]
	for i := range s.pos {
		s.pos[i] = -1
	}
	return SideCalendar{eng: e, lane: e.curLane, gen: s.gen}
}

// queue returns the calendar's lane and state, panicking on a stale handle.
func (c SideCalendar) queue() (*laneQ, *sideQ) {
	l := &c.eng.lanes[c.lane]
	if l.side.gen != c.gen || l.side.fn == nil {
		panic("sim: side calendar used after engine Reset")
	}
	return l, &l.side
}

// ArmAt arms slot to fire at absolute virtual time t, taking the next
// sequence number exactly as At would. Arming an already armed slot moves
// it: the earlier firing is forgotten and the slot fires once, at t, ordered
// by its new sequence number. Like At, it rejects a time before Now.
func (c SideCalendar) ArmAt(slot int32, t Time) error {
	e := c.eng
	if t < e.now {
		return ErrPast
	}
	l, s := c.queue()
	k := hkey{at: t, seq: e.seq}
	e.seq++
	if slot == s.firing {
		// Re-arming the slot being fired: it still sits at the root.
		s.firing = -1
		s.keys[0] = k
		s.siftDown(0)
		l.live++
		return nil
	}
	if p := s.pos[slot]; p >= 0 {
		s.keys[p] = k
		// A fresh sequence number makes k later than any key the slot could
		// previously have had at an equal time, so only a strictly earlier
		// time can move it up.
		if p > 0 && k.less(s.keys[(p-1)/4]) {
			s.siftUp(int(p))
		} else {
			s.siftDown(int(p))
		}
		return nil
	}
	s.heap = append(s.heap, slot)
	s.keys = append(s.keys, k)
	s.pos[slot] = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
	l.live++
	return nil
}

// Arm arms slot to fire d microseconds from now, the calendar's After;
// negative d is clamped to 0.
func (c SideCalendar) Arm(slot int32, d Time) {
	if d < 0 {
		d = 0
	}
	if err := c.ArmAt(slot, c.eng.now+d); err != nil {
		panic(err) // unreachable: now+d >= now
	}
}

// Armed reports whether slot is waiting to fire.
func (c SideCalendar) Armed(slot int32) bool {
	_, s := c.queue()
	return s.pos[slot] >= 0 && slot != s.firing
}

// fire runs the root slot's body at its time, leaving the slot at the root
// while the body runs (see firing).
func (s *sideQ) fire(at Time) {
	slot := s.heap[0]
	s.firing = slot
	s.fn(slot, at)
	s.settle()
}

// settle pops the firing slot if its body left it idle.
func (s *sideQ) settle() {
	if s.firing >= 0 {
		s.firing = -1
		s.pop()
	}
}

// pop removes the top slot, marks it idle and returns it.
func (s *sideQ) pop() int32 {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0], s.keys[0] = s.heap[last], s.keys[last]
	s.heap, s.keys = s.heap[:last], s.keys[:last]
	s.pos[top] = -1
	if last > 0 {
		s.siftDown(0)
	}
	return top
}

// disarmAll idles every slot, keeping the calendar installed.
func (s *sideQ) disarmAll() {
	for _, slot := range s.heap {
		s.pos[slot] = -1
	}
	s.heap, s.keys = s.heap[:0], s.keys[:0]
	s.firing = -1
}

// uninstall removes the calendar, keeping its backing arrays for reuse.
func (s *sideQ) uninstall() {
	if s.fn == nil {
		return
	}
	s.disarmAll()
	s.fn = nil
	s.gen++
}

// The sifts mirror the event heap's hole-moving sifts, additionally keeping
// pos current for every slot they move.

func (s *sideQ) siftUp(i int) {
	h, k := s.heap, s.keys
	moving, mk := h[i], k[i]
	for i > 0 {
		p := (i - 1) / 4
		if !mk.less(k[p]) {
			break
		}
		h[i], k[i] = h[p], k[p]
		s.pos[h[i]] = int32(i)
		i = p
	}
	h[i], k[i] = moving, mk
	s.pos[moving] = int32(i)
}

func (s *sideQ) siftDown(i int) {
	h, k := s.heap, s.keys
	n := len(h)
	moving, mk := h[i], k[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		bk := k[first]
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if k[c].less(bk) {
				best, bk = c, k[c]
			}
		}
		if !bk.less(mk) {
			break
		}
		h[i], k[i] = h[best], k[best]
		s.pos[h[i]] = int32(i)
		i = best
	}
	h[i], k[i] = moving, mk
	s.pos[moving] = int32(i)
}
