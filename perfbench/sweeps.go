package main

import (
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/netmodel"
	"addcrn/internal/rng"
	"addcrn/internal/spectrum"
)

// sweepSpec describes a sweep workload: the sweep one timed operation runs.
type sweepSpec struct {
	// build returns a fresh sweep for the workload seed.
	build func(seed uint64, tiny bool) *experiment.Sweep
	// checkpoint journals every operation, and pins the journal bytes.
	checkpoint bool
	// cycleSecs, when positive, is the time one cycle of plan takes on the
	// sizing host; the workload then runs a fixed set of distinct inputs.
	cycleSecs float64
}

// fig6cSpec is Fig. 6c (delay against PU activity p_t) with ADDC and
// Coolest on every topology, exactly as `addc-experiments -fig 6c` runs it,
// at a reduced operating point: n=120 SUs over a 65 m square (the scaled
// point's SU density) with N=4 PUs and 20 repetitions. README.md explains
// why the scaled point's n=300, N=8 is not used.
var fig6cSpec = sweepSpec{
	build: func(seed uint64, tiny bool) *experiment.Sweep {
		p := netmodel.ScaledDefaultParams()
		p.NumSU, p.Area, p.NumPU = 120, 65, 4
		reps := 20
		if tiny {
			p.NumSU, p.Area, p.NumPU = 40, 40, 2
			reps = 2
		}
		s, err := experiment.NewFigureSweep("6c", p, seed)
		if err != nil {
			panic(err) // "6c" is a known figure
		}
		s.Reps = reps
		s.PUModel = spectrum.ModelExact
		s.MaxVirtualTime = 2 * time.Hour
		return s
	},
	cycleSecs: 9,
}

// gridSpec is the small grid of bench_test.go's sweep benchmarks: ten p_t
// values in [0.1, 0.3] times 20 repetitions at n=40, area 40, N=2, with a
// checkpoint journal.
var gridSpec = sweepSpec{
	build: func(seed uint64, tiny bool) *experiment.Sweep {
		p := netmodel.ScaledDefaultParams()
		p.NumSU, p.Area, p.NumPU = 40, 40, 2
		nx, reps := 10, 20
		if tiny {
			nx, reps = 3, 2
		}
		xs := make([]float64, nx)
		for i := range xs {
			xs[i] = 0.1 + 0.2*float64(i)/float64(nx-1)
		}
		return &experiment.Sweep{
			ID:             "bench",
			Base:           p,
			Xs:             xs,
			Apply:          func(p netmodel.Params, x float64) netmodel.Params { p.ActiveProb = x; return p },
			Reps:           reps,
			Seed:           seed,
			PUModel:        spectrum.ModelExact,
			MaxVirtualTime: time.Hour,
		}
	},
	checkpoint: true,
}

// sweepOutput is what one sweep operation produced.
type sweepOutput struct {
	csv, journal []byte
	collections  int
}

// runSweep runs s once with the given worker count, journaling to a fresh
// file under dir when the workload checkpoints. A panic is returned as an
// error so it counts as a failed operation.
func (spec sweepSpec) runSweep(s *experiment.Sweep, workers int, dir string) (out sweepOutput, secs float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep panicked: %v\n%s", r, debug.Stack())
		}
	}()
	s.Workers = workers
	if spec.checkpoint {
		f, err := os.CreateTemp(dir, "journal-*.jsonl")
		if err != nil {
			return out, 0, err
		}
		f.Close()
		s.Checkpoint = f.Name()
		defer os.Remove(s.Checkpoint)
	}
	var res *experiment.SweepResult
	secs, err = timed(func() error {
		var err error
		res, err = s.Run()
		return err
	})
	if err != nil {
		return out, secs, err
	}
	out.csv = []byte(res.FormatCSV())
	out.collections = 2 * len(s.Xs) * s.Reps
	if spec.checkpoint {
		if out.journal, err = os.ReadFile(s.Checkpoint); err != nil {
			return out, secs, err
		}
	}
	return out, secs, nil
}

// verifySweep checks one operation's output: byte-identical to the first
// output of the same inputs in the run (any worker count gives the same
// bytes) and, for the default seed's own inputs, to the pinned digests.
func (b *bench) verifySweep(outputs map[uint64]sweepOutput, seed uint64, out sweepOutput) error {
	first, ok := outputs[seed]
	if !ok {
		outputs[seed] = out
		if seed != b.seed {
			return nil
		}
		ok := b.checkPinnedOutput("csv", out.csv)
		if out.journal != nil {
			ok = b.checkPinnedOutput("journal", out.journal) && ok
		}
		if !ok {
			return errors.New("output differs from the pinned digest")
		}
		return nil
	}
	if string(out.csv) != string(first.csv) {
		return errors.New("CSV differs from an earlier output of the same inputs")
	}
	if string(out.journal) != string(first.journal) {
		return errors.New("journal differs from an earlier output of the same inputs")
	}
	return nil
}

// sweepOp is one timed operation of a sweep workload.
type sweepOp struct {
	seed    uint64
	workers int
}

// plan returns a run's operations one at a time; ok is false once the run
// is done. A workload with cycleSecs runs a fixed number of cycles sized to
// --seconds: cycle k sweeps two distinct input sets at Workers=nproc and
// repeats the first of them at Workers=1, so the run covers the same inputs
// however fast the program is. Otherwise every operation sweeps the seed's
// own inputs, alternating worker counts until --seconds have passed.
func (spec sweepSpec) plan(b *bench) func(i int) (op sweepOp, ok bool) {
	if spec.cycleSecs == 0 {
		deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
		return func(i int) (sweepOp, bool) {
			op := sweepOp{b.seed, b.nproc}
			if i%2 == 1 {
				op.workers = 1
			}
			return op, i < 2 || time.Now().Before(deadline)
		}
	}
	cycles := max(1, int(b.seconds/spec.cycleSecs+0.5))
	return func(i int) (sweepOp, bool) {
		k, j := i/3, i%3
		op := sweepOp{b.subSeed(2*k + j), b.nproc}
		if j == 2 {
			op = sweepOp{b.subSeed(2 * k), 1}
		}
		return op, k < cycles
	}
}

// subSeed derives the i-th input set's seed; the first is the workload seed
// itself, so the default seed's outputs match the CLI's.
func (b *bench) subSeed(i int) uint64 {
	if i == 0 {
		return b.seed
	}
	return rng.New(b.seed).ChildN("perfbench/inputs", i).Uint64()
}

// opWindow is how many consecutive nproc-worker operations of a sweep
// workload one p95 is taken over.
const opWindow = 20

// windowedP95 is the median, over consecutive windows of w values, of each
// window's p95; fewer than 2w values are taken as one window. A stall of the
// shared host slows the operations it catches, so in a single p95 over the
// run one or two stalls decide the figure; in the median over windows they
// decide one or two windows.
func windowedP95(xs []float64, w int) float64 {
	if len(xs) < 2*w {
		return quantile(xs, 0.95)
	}
	var p95s []float64
	for lo := 0; lo+w <= len(xs); lo += w {
		p95s = append(p95s, quantile(xs[lo:lo+w], 0.95))
	}
	return median(p95s)
}

// runSweepWorkload is the end-to-end run of a sweep workload. Set-up runs a
// one-pair sweep setupRepeats times (cold caches first) and reports the
// median. The timed phase then runs the operations of plan.
func runSweepWorkload(spec sweepSpec) func(b *bench) error {
	return func(b *bench) error {
		var setups []float64
		for i := 0; i < setupRepeats; i++ {
			secs, err := timed(func() error {
				s := spec.build(b.seed, b.tiny)
				s.Xs, s.Reps = s.Xs[:1], 1
				_, _, err := spec.runSweep(s, b.nproc, b.dir)
				return err
			})
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, secs)
		}
		b.set("setup_s", median(setups))

		next := spec.plan(b)
		outputs := map[uint64]sweepOutput{}
		var wall, rate, rate1 []float64
		for i := 0; ; i++ {
			op, ok := next(i)
			if !ok {
				break
			}
			out, secs, err := spec.runSweep(spec.build(op.seed, b.tiny), op.workers, b.dir)
			if err == nil {
				err = b.verifySweep(outputs, op.seed, out)
			}
			b.op(err)
			if b.failed > 5 {
				break // the result already reads incorrect; stop burning time
			}
			if err != nil {
				continue
			}
			if op.workers == 1 {
				rate1 = append(rate1, float64(out.collections)/secs)
			} else {
				wall = append(wall, secs)
				rate = append(rate, float64(out.collections)/secs)
			}
		}
		b.set("wall_s", median(wall))
		b.set("runs_per_s", median(rate))
		b.set("runs_per_s_1w", median(rate1))
		b.set("job_p50_s", median(wall))
		b.set("job_p95_s", windowedP95(wall, opWindow))
		b.set("max_rate_jobs_per_s", float64(len(wall))/sum(wall))
		return nil
	}
}
