package spectrum

import (
	"math"
	"testing"

	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/sim"
)

// toggleObserver is a minimal contending population for BenchmarkPUToggle:
// a running node freezes on SpectrumBusy and a frozen one resumes on
// SpectrumFree, each updating its eligibility bits like the MAC does.
type toggleObserver struct {
	be, fe []uint64
}

func (o *toggleObserver) SpectrumBusy(node int32, _ sim.Time) {
	bitClear(o.be, node)
	bitSet(o.fe, node)
}

func (o *toggleObserver) SpectrumFree(node int32, _ sim.Time) {
	bitClear(o.fe, node)
	bitSet(o.be, node)
}

func (o *toggleObserver) PUArrived(int32, sim.Time) {}

// benchPUToggle measures the tracker's fan-out per PU toggle on the fully
// filtered path the MAC uses. Every tenth node contends — on the fig. 6c
// operating point about 9% of a row is eligible when a toggle lands — and
// the toggled PU is drawn at random, so the active set keeps changing.
func benchPUToggle(b *testing.B, p netmodel.Params) {
	nw, err := netmodel.Deploy(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	consts, err := pcr.Compute(p)
	if err != nil {
		b.Fatal(err)
	}
	w := BitsetWords(nw.NumNodes())
	obs := &toggleObserver{be: make([]uint64, w), fe: make([]uint64, w)}
	tr, err := NewTracker(nw, consts.Range, consts.Range, obs)
	if err != nil {
		b.Fatal(err)
	}
	tr.FilterPUArrivals(true)
	tr.FilterTransitions(obs.be, obs.fe)
	for v := int32(1); v < int32(nw.NumNodes()); v += 10 {
		bitSet(obs.be, v)
	}
	// Warm the tables and the cover index outside the timed region.
	tr.AddPUTransmitter(0, 0)
	tr.RemovePUTransmitter(0, 0)
	active := make([]bool, len(nw.PU))
	src := rng.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pu := int32(src.Intn(len(active)))
		if active[pu] {
			tr.RemovePUTransmitter(pu, 0)
		} else {
			tr.AddPUTransmitter(pu, 0)
		}
		active[pu] = !active[pu]
	}
}

// BenchmarkPUToggle is the per-toggle cost of the PU layer's tracker
// fan-out at the fig. 6c operating point (n=120 over a 65 m square, N=4)
// and at n=2000 (the scaled operating point grown at constant density, as
// BenchmarkCollectN2000 runs it: N=53).
func BenchmarkPUToggle(b *testing.B) {
	b.Run("fig6c", func(b *testing.B) {
		p := netmodel.ScaledDefaultParams()
		p.NumSU, p.Area, p.NumPU = 120, 65, 4
		benchPUToggle(b, p)
	})
	b.Run("n2000", func(b *testing.B) {
		p := netmodel.ScaledDefaultParams()
		scale := 2000 / float64(p.NumSU)
		p.Area *= math.Sqrt(scale)
		p.NumPU = int(float64(p.NumPU)*scale + 0.5)
		p.NumSU = 2000
		benchPUToggle(b, p)
	})
}
