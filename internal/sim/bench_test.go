package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleAndRun measures raw event throughput: schedule and drain
// 1024 events per iteration.
func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1024; j++ {
			e.After(Time(j*37%4096), func(Time) {})
		}
		e.Run()
	}
}

// BenchmarkRearm measures the self-rescheduling pattern every PU activity
// process and backoff timer uses.
func BenchmarkRearm(b *testing.B) {
	e := New()
	count := 0
	var rearm func(now Time)
	rearm = func(now Time) {
		count++
		if count < b.N {
			e.After(7, rearm)
		}
	}
	e.After(7, rearm)
	b.ResetTimer()
	e.Run()
}

// BenchmarkArenaChurn measures the cancel/re-arm cycle the carrier-sense
// freeze path drives constantly: every iteration cancels a pending timer
// (eager heap removal + slot release) and schedules a replacement (slot
// reuse off the free list). Steady state must not allocate.
func BenchmarkArenaChurn(b *testing.B) {
	e := New()
	const live = 256 // one backoff timer per node at a mid-size operating point
	timers := make([]Timer, live)
	for j := range timers {
		timers[j] = e.After(Time(1000+j*13%512), func(Time) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % live
		timers[j].Cancel()
		timers[j] = e.After(Time(1000+(i*37)%512), func(Time) {})
	}
}

// BenchmarkResetReuse measures workspace-style engine recycling: fill the
// arena, drain it, Reset, repeat. The arena, free list, and heap backings
// must be retained across iterations.
func BenchmarkResetReuse(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 512; j++ {
			e.After(Time(j%97), func(Time) {})
		}
		e.Run()
		e.Reset()
	}
}

// benchLanes drives the same self-rescheduling workload on B lanes
// multiplexed over one engine — the lane-heap hot path: every step scans
// the head index, pops one lane's heap, and the event re-arms into the same
// lane.
func benchLanes(b *testing.B, lanes int) {
	e := New()
	e.SetLanes(lanes)
	total := 0
	budget := b.N
	for l := 0; l < lanes; l++ {
		e.SetLane(l)
		period := Time(5 + 2*l)
		var rearm func(now Time)
		rearm = func(now Time) {
			total++
			if total < budget {
				e.After(period, rearm)
			}
		}
		e.After(period, rearm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for e.Step() {
	}
}

func BenchmarkLaneStep1(b *testing.B)  { benchLanes(b, 1) }
func BenchmarkLaneStep4(b *testing.B)  { benchLanes(b, 4) }
func BenchmarkLaneStep16(b *testing.B) { benchLanes(b, 16) }

// BenchmarkSideCalendar measures the recurring-timer pattern of the exact
// PU model — each of N timers re-arms itself with a pseudo-random delay
// every time it fires — on a side calendar and, for contrast, through the
// event heap with After. N=4 is the fig. 6c operating point, N=53 the PU
// count of BenchmarkCollectN2000. Both run beside a population of 128
// pending heap events that never fire, standing in for the per-node MAC
// timers a collection keeps queued. One op is one firing.
func BenchmarkSideCalendar(b *testing.B) {
	run := func(b *testing.B, n int, side bool) {
		e := New()
		for i := 0; i < 128; i++ {
			e.At(MaxTime-Time(i), func(Time) {})
		}
		fired, x := 0, uint32(1)
		next := func() Time {
			x = x*1664525 + 1013904223
			return Time(1 + x>>24)
		}
		if side {
			var cal SideCalendar
			cal = e.NewSideCalendar(n, func(slot int32, now Time) {
				fired++
				cal.Arm(slot, next())
			})
			for i := range int32(n) {
				cal.Arm(i, Time(i))
			}
		} else {
			fns := make([]EventFunc, n)
			for i := range fns {
				fns[i] = func(now Time) {
					fired++
					e.After(next(), fns[i])
				}
				e.After(Time(i), fns[i])
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for fired < b.N && e.Step() {
		}
	}
	for _, n := range []int{4, 53} {
		b.Run(fmt.Sprintf("side-N%d", n), func(b *testing.B) { run(b, n, true) })
		b.Run(fmt.Sprintf("heap-N%d", n), func(b *testing.B) { run(b, n, false) })
	}
}
