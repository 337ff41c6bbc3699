package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"addcrn/internal/coolest"
	"addcrn/internal/core"
	"addcrn/internal/experiment"
	"addcrn/internal/graphx"
	"addcrn/internal/netmodel"
	"addcrn/internal/pcr"
	"addcrn/internal/rng"
	"addcrn/internal/stats"
	"addcrn/internal/trace"

	metricsreg "addcrn/internal/metrics"
)

// span is one timed call the harness made into a layer. Spans of one
// request (a sweep pair, a daemon job) share req; parent is the index of
// the enclosing span, or -1.
type span struct {
	Name   string  `json:"name"`
	Req    string  `json:"req"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index and the function that closes it
// and reports its duration in seconds. A nil recorder only times the call.
func (r *recorder) begin(name, req string, parent int) (int, func() float64) {
	if r == nil {
		t := time.Now()
		return -1, func() float64 { return time.Since(t).Seconds() }
	}
	start := time.Since(r.t0).Seconds()
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: start})
	r.mu.Unlock()
	return idx, func() float64 {
		end := time.Since(r.t0).Seconds()
		r.mu.Lock()
		r.spans[idx].End = end
		r.mu.Unlock()
		return end - start
	}
}

// write stores the spans as JSONL.
func (r *recorder) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// timedTables serves the carrier-sense CSR neighbor tables of one network,
// one build per radius, and adds the build time to secs.
type timedTables struct {
	nw     *netmodel.Network
	su, pu map[float64]*netmodel.CSRTable
	secs   float64
}

func (t *timedTables) table(cache map[float64]*netmodel.CSRTable, r float64, build func(float64) (*netmodel.CSRTable, error)) (*netmodel.CSRTable, error) {
	if tab, ok := cache[r]; ok {
		return tab, nil
	}
	start := time.Now()
	tab, err := build(r)
	t.secs += time.Since(start).Seconds()
	if err == nil {
		cache[r] = tab
	}
	return tab, err
}

func (t *timedTables) SUNeighborTable(r float64) (*netmodel.CSRTable, error) {
	return t.table(t.su, r, t.nw.SUNeighborTable)
}

func (t *timedTables) PUNeighborTable(r float64) (*netmodel.CSRTable, error) {
	return t.table(t.pu, r, t.nw.PUNeighborTable)
}

// algoOutcome is one collection's result, reduced to what the sweep's
// summary and the per-layer counts read.
type algoOutcome struct {
	err                         error
	deadline                    bool
	delay, capacity, aborts     float64
	tightness, puBusy, fairness float64
	steps                       uint64
	tx, macAborts               int
	freezes, losses             int64
}

// layerTimes accumulates one worker's busy seconds per layer.
type layerTimes struct {
	deploy, csr, tree, coolestTree, addc, cool float64
}

// drivePairs runs every (x, rep) pair of the sweep through the public
// construction and collection functions — core.BuildNetwork,
// core.BuildTree, coolest.BuildParentsOn, core.Collect — on nproc workers,
// timing each call. It derives every seed the way experiment.Sweep does, so
// the summary it assembles must equal the sweep's CSV byte for byte.
func (b *bench) drivePairs(s *experiment.Sweep, rec *recorder) ([][][2]algoOutcome, layerTimes) {
	grid := make([][][2]algoOutcome, len(s.Xs))
	for xi := range grid {
		grid[xi] = make([][2]algoOutcome, s.Reps)
	}
	total := len(s.Xs) * s.Reps
	var next atomic.Int64
	perWorker := make([]layerTimes, b.nproc)
	var wg sync.WaitGroup
	for w := 0; w < b.nproc; w++ {
		wg.Add(1)
		go func(lt *layerTimes) {
			defer wg.Done()
			ws := core.NewWorkspace()
			reg := metricsreg.NewRegistry()
			for {
				k := int(next.Add(1)) - 1
				if k >= total {
					return
				}
				xi, rep := k/s.Reps, k%s.Reps
				grid[xi][rep] = drivePair(s, xi, rep, ws, reg, rec, lt)
			}
		}(&perWorker[w])
	}
	wg.Wait()
	var lt layerTimes
	for _, w := range perWorker {
		lt.deploy += w.deploy
		lt.csr += w.csr
		lt.tree += w.tree
		lt.coolestTree += w.coolestTree
		lt.addc += w.addc
		lt.cool += w.cool
	}
	return grid, lt
}

func drivePair(s *experiment.Sweep, xi, rep int, ws *core.Workspace, reg *metricsreg.Registry, rec *recorder, lt *layerTimes) (out [2]algoOutcome) {
	fail := func(err error) [2]algoOutcome { return [2]algoOutcome{{err: err}, {err: err}} }
	defer func() {
		if r := recover(); r != nil {
			out = fail(fmt.Errorf("pair x[%d] rep %d panicked: %v", xi, rep, r))
		}
	}()
	params := s.Apply(s.Base, s.Xs[xi])
	seed := rng.New(s.Seed).ChildN(fmt.Sprintf("sweep/%s/x%d", s.ID, xi), rep).Uint64()
	req := fmt.Sprintf("x%d/r%d", xi, rep)
	pairSpan, endPair := rec.begin("pair", req, -1)
	defer endPair()

	_, end := rec.begin("netmodel.deploy", req, pairSpan)
	nw, err := core.BuildNetwork(core.Options{Params: params, Seed: seed, DeployAttempts: 50})
	lt.deploy += end()
	if err != nil {
		return fail(err)
	}
	_, end = rec.begin("cds.tree", req, pairSpan)
	tree, err := core.BuildTree(nw)
	lt.tree += end()
	if err != nil {
		return fail(err)
	}
	_, end = rec.begin("coolest.tree", req, pairSpan)
	adj, adjErr := graphx.UnitDisk(nw.Bounds(), nw.SU, params.RadiusSU)
	consts, pcrErr := pcr.Compute(params)
	var parents []int32
	var coolErr error
	switch {
	case adjErr != nil:
		coolErr = adjErr
	case pcrErr != nil:
		coolErr = pcrErr
	default:
		parents, coolErr = coolest.BuildParentsOn(adj, nw, consts.Range, coolest.MetricAccumulated)
	}
	lt.coolestTree += end()
	if adjErr != nil {
		return fail(adjErr)
	}

	tables := &timedTables{nw: nw, su: map[float64]*netmodel.CSRTable{}, pu: map[float64]*netmodel.CSRTable{}}
	cfg := core.CollectConfig{
		Seed:           seed,
		PUModel:        s.PUModel,
		MaxVirtualTime: s.MaxVirtualTime,
		DisableHandoff: s.DisableHandoff,
		Adj:            adj,
		Tables:         tables,
		Workspace:      ws,
		Metrics:        reg,
	}
	collect := func(name string, parent []int32, cfg core.CollectConfig) algoOutcome {
		reg.Reset()
		csrBefore := tables.secs
		_, end := rec.begin(name, req, pairSpan)
		r, err := core.Collect(nw, parent, cfg)
		secs := end() - (tables.secs - csrBefore)
		if name == "core.collect.addc" {
			lt.addc += secs
		} else {
			lt.cool += secs
		}
		o := algoOutcome{err: err, deadline: errors.Is(err, core.ErrDeadline), tightness: -1}
		if r != nil {
			o.delay, o.capacity, o.fairness = r.DelaySlots, r.Capacity, r.FairnessIndex
			o.steps, o.tx, o.macAborts = r.EngineSteps, r.TotalTransmissions, r.TotalAborts
			o.aborts = float64(r.TotalAborts)
			if cfg.GenericCSMA {
				o.aborts = float64(r.TotalAborts + r.TotalCollisions)
			}
			if r.Theory != nil {
				o.tightness = r.Theory.ServiceTightness
			}
		}
		o.puBusy = reg.Gauge("spectrum_pu_busy_fraction").Value()
		o.freezes = reg.Counter("mac_freezes_total").Value()
		o.losses = reg.Counter("mac_contention_losses_total").Value()
		return o
	}

	addcCfg := cfg
	addcCfg.Tree = tree
	addcCfg.TreeStats = tree.ComputeStats(adj)
	out[0] = collect("core.collect.addc", tree.Parent, addcCfg)
	if coolErr != nil {
		out[1] = algoOutcome{err: coolErr}
	} else {
		coolCfg := cfg
		coolCfg.GenericCSMA = !s.SameMAC
		out[1] = collect("core.collect.coolest", parents, coolCfg)
	}
	lt.csr += tables.secs
	return out
}

// summarize assembles the sweep summary from driven pairs the way
// experiment.Sweep does: failed collections count per point, the rest are
// averaged in grid order.
func summarize(s *experiment.Sweep, grid [][][2]algoOutcome) *experiment.SweepResult {
	res := &experiment.SweepResult{Sweep: s}
	for xi, x := range s.Xs {
		p := experiment.PointResult{X: x}
		var delays, caps, aborts [2][]float64
		var tight, puBusy, fair []float64
		for _, pair := range grid[xi] {
			for a, o := range pair {
				if o.err != nil {
					p.Failed++
					p.LastError = o.err.Error()
					continue
				}
				delays[a] = append(delays[a], o.delay)
				caps[a] = append(caps[a], o.capacity)
				aborts[a] = append(aborts[a], o.aborts)
				if a == 0 {
					if o.tightness >= 0 {
						tight = append(tight, o.tightness)
					}
					puBusy = append(puBusy, o.puBusy)
					fair = append(fair, o.fairness)
				}
			}
		}
		p.ADDCDelay, p.CoolestDelay = stats.Summarize(delays[0]), stats.Summarize(delays[1])
		p.ADDCCapacity, p.CoolestCapacity = stats.Summarize(caps[0]), stats.Summarize(caps[1])
		p.ADDCAborts, p.CoolestAborts = stats.Summarize(aborts[0]), stats.Summarize(aborts[1])
		p.ADDCTightness = stats.Summarize(tight)
		p.ADDCPUBusy = stats.Summarize(puBusy)
		p.ADDCFairness = stats.Summarize(fair)
		res.Points = append(res.Points, p)
	}
	return res
}

// spanCounter counts the sweep's checkpoint_flush spans.
type spanCounter struct{ flushes atomic.Int64 }

func (c *spanCounter) Emit(e trace.SpanEvent) {
	if e.Event == trace.SpanCheckpointFlush {
		c.flushes.Add(1)
	}
}

// runtimeSample is a point-in-time reading of process CPU and allocation.
type runtimeSample struct {
	wall                   time.Time
	cpu                    float64 // user+system seconds, all threads
	gcCPU, totalCPU        float64 // runtime/metrics CPU classes
	allocBytes, allocCount float64
}

// sampleRuntime forces a GC first: the runtime refreshes its CPU-class
// metrics only at the end of a cycle.
func sampleRuntime() runtimeSample {
	runtime.GC()
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure only skews the idle share
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return runtimeSample{
		wall:       time.Now(),
		cpu:        tv(ru.Utime) + tv(ru.Stime),
		gcCPU:      ms[0].Value.Float64(),
		totalCPU:   ms[1].Value.Float64(),
		allocBytes: float64(ms[2].Value.Uint64()),
		allocCount: float64(ms[3].Value.Uint64()),
	}
}

// profiled runs f under the CPU profiler and attributes the samples.
func profiled(path string, f func() error) (cpuAttribution, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return cpuAttribution{}, err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return cpuAttribution{}, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return cpuAttribution{}, err
	}
	return attributeProfile(buf.Bytes())
}

// tracePath names a traced run's artifact kept under the work directory.
func (b *bench) tracePath(suffix string) string {
	return filepath.Join(b.workdir, fmt.Sprintf("%s-seed%d.%s", b.workload, b.seed, suffix))
}

// tracedSweepWorkload is the per-layer run of a sweep workload: the driven
// pair-by-pair pass for layer busy times and counts, then the sweep itself,
// repeated under the CPU profiler with checkpoint spans (the CPU split) and
// as often again plain (the scheduler and runtime numbers, and the tracing
// overhead).
func tracedSweepWorkload(spec sweepSpec) func(b *bench, out io.Writer) error {
	return func(b *bench, out io.Writer) error {
		rec := newRecorder()
		s := spec.build(b.seed, b.tiny)
		start := time.Now()
		grid, lt := b.drivePairs(s, rec)
		driveSecs := time.Since(start).Seconds()
		var pairErr error
		for _, row := range grid {
			for _, pair := range row {
				for _, o := range pair {
					if o.err != nil && !o.deadline && pairErr == nil {
						pairErr = o.err
					}
				}
			}
		}
		b.op(pairErr)
		csv := []byte(summarize(s, grid).FormatCSV())
		if !b.checkPinnedOutput("csv", csv) {
			b.problem("driven pairs do not reproduce the sweep's CSV")
		}

		var steps uint64
		var calls, deadlines, tx, aborts int
		var freezes, losses int64
		var busy float64
		for _, row := range grid {
			for _, pair := range row {
				for _, o := range pair {
					calls++
					if o.deadline {
						deadlines++
					}
					steps += o.steps
					tx += o.tx
					aborts += o.macAborts
					freezes += o.freezes
					losses += o.losses
					busy += o.puBusy
				}
			}
		}
		b.set("netmodel.deploy_s", lt.deploy)
		b.set("netmodel.csr_s", lt.csr)
		b.set("cds.tree_s", lt.tree)
		b.set("coolest.tree_s", lt.coolestTree)
		b.set("core.collect_s", lt.addc+lt.cool)
		b.set("core.collect_s.addc", lt.addc)
		b.set("core.collect_s.coolest", lt.cool)
		b.set("core.collect_calls", float64(calls))
		b.set("core.deadline_runs", float64(deadlines))
		b.set("sim.events", float64(steps))
		b.set("sim.events_per_s", float64(steps)/(lt.addc+lt.cool))
		b.set("spectrum.pu_busy_frac", busy/float64(calls))
		b.set("mac.tx", float64(tx))
		b.set("mac.aborts", float64(aborts))
		b.set("mac.freezes", float64(freezes))
		b.set("mac.contention_losses", float64(losses))
		b.set("mac.useful_ratio", float64(tx)/float64(tx+aborts))

		pool := core.NewWorkspacePool(b.nproc)
		sweepOnce := func(spans trace.SpanSink) (sweepOutput, float64, error) {
			s := spec.build(b.seed, b.tiny)
			s.Workspaces = pool
			s.Spans = spans
			o, secs, err := spec.runSweep(s, b.nproc, b.dir)
			if err == nil && string(o.csv) != string(csv) {
				err = errors.New("sweep CSV differs from the driven pairs' summary")
			}
			b.op(err)
			return o, secs, err
		}
		// The profiled sweeps repeat for half of --seconds; as many plain
		// sweeps follow, so the two medians give the tracing overhead.
		flushes := &spanCounter{}
		var tracedOut sweepOutput
		var tracedSecs []float64
		phaseEnd := time.Now().Add(time.Duration(b.seconds / 2 * float64(time.Second)))
		attr, err := profiled(b.tracePath("cpu.pprof"), func() error {
			for len(tracedSecs) == 0 || time.Now().Before(phaseEnd) {
				o, secs, err := sweepOnce(flushes)
				if err != nil {
					return err
				}
				tracedOut = o
				tracedSecs = append(tracedSecs, secs)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("profiled sweep: %w", err)
		}
		var plainSecs []float64
		before := sampleRuntime()
		for range tracedSecs {
			_, secs, err := sweepOnce(nil)
			if err != nil {
				return fmt.Errorf("plain sweep: %w", err)
			}
			plainSecs = append(plainSecs, secs)
		}
		after := sampleRuntime()
		sweeps := float64(len(tracedSecs))
		collections := float64(calls) * sweeps
		b.set("experiment.sweep_s", median(plainSecs))
		b.set("experiment.sched_idle_frac", 1-(after.cpu-before.cpu)/(float64(b.nproc)*after.wall.Sub(before.wall).Seconds()))
		b.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/(after.totalCPU-before.totalCPU))
		b.set("runtime.alloc_bytes_per_run", (after.allocBytes-before.allocBytes)/collections)
		b.set("runtime.allocs_per_run", (after.allocCount-before.allocCount)/collections)
		b.set("experiment.journal_flushes", float64(flushes.flushes.Load())/sweeps)
		b.set("experiment.journal_flush_s", attr.journal/sweeps)
		b.set("experiment.journal_bytes", float64(len(tracedOut.journal)))
		b.set("experiment.topo_cache_hit_ratio", 0)
		ps := pool.Stats()
		b.set("core.workspace_reuse_ratio", float64(ps.Reuses)/float64(ps.Gets))
		b.set("bench.trace_overhead_frac", median(tracedSecs)/median(plainSecs)-1)
		b.set("bench.gen_late_p95_s", 0)
		for _, m := range []string{"serve.submit_s", "serve.queue_wait_s", "serve.exec_s", "serve.fetch_s",
			"serve.rejected", "serve.queue_peak", "serve.running_peak", "serve.state_bytes_per_job"} {
			b.set(m, 0)
		}
		b.setShares(attr)
		b.checkExactRepeat()
		fmt.Fprintf(out, "# driven pairs %.3fs; %d sweeps, median %.3fs plain, %.3fs profiled; %d spans in %s; profile %s\n",
			driveSecs, len(plainSecs), median(plainSecs), median(tracedSecs), len(rec.spans), b.tracePath("spans.jsonl"), b.tracePath("cpu.pprof"))
		return rec.write(b.tracePath("spans.jsonl"))
	}
}

func (b *bench) setShares(a cpuAttribution) {
	for _, m := range cpuModules {
		b.set("cpu_share."+m, a.share[m])
	}
}
