package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"addcrn/internal/experiment"
	"addcrn/internal/netmodel"
	"addcrn/internal/serve"
	"addcrn/internal/spectrum"
)

const (
	// nominalRate is the open-loop submission rate of the latency session,
	// about a quarter of the 2-worker daemon's capacity on the 2-CPU host
	// this benchmark was sized on: at higher rates queueing amplified the
	// host's own swings in speed into the latency percentiles (README.md).
	nominalRate = 8.0
	// latencyLimit is the job_p95_s limit a rung of the rate ladder must
	// meet to count toward max_rate_jobs_per_s. Near capacity a rung's p95
	// levels off between 0.3 and 0.8 s, because a session of a few seconds
	// can only build so much backlog, so a limit there picks no rate; at
	// 0.25 s the limit lies where p95 climbs steeply, just past the knee.
	latencyLimit = 0.25
	// minJobs is the fewest jobs a latency session carries: ten beyond its
	// p95, spread over five windows of latencyWindow jobs.
	minJobs = 200
	// pollInterval is how often the poller asks for the state of every
	// job still in flight.
	pollInterval = 10 * time.Millisecond
)

// ladderRates are the fixed rungs of the rate ladder, in jobs per second,
// 4 jobs/s apart up to past the daemon's capacity. A rung's arrivals are
// evenly spaced: the latency session already covers bursty arrivals, and
// at a fixed rate the rung's p95 rises with the load rather than with the
// bursts its schedule happens to draw.
var ladderRates = []float64{20, 24, 28, 32, 36, 40, 44, 48, 52}

// rungAttempts is how many sessions a ladder rung may take to pass.
const rungAttempts = 2

// mixJob is one job of the serve-mix schedule.
type mixJob struct {
	spec serve.JobSpec
	key  string // identical specs share a key (and a reference result)
}

// mixBlock is the length of the blocks a session's jobs are drawn in.
const mixBlock = 20

// smallSpec is the small job of the mix: Fig. 6c at n=40, N=2, area 40.
func smallSpec(seed uint64, tiny bool) serve.JobSpec {
	reps := 4
	if tiny {
		reps = 1
	}
	return serve.JobSpec{Figure: "6c", NumSU: 40, NumPU: 2, Area: 40, Reps: reps, Seed: seed}
}

// serveMix generates one session's job mix: 45% small unique jobs, 45%
// repeats of four fixed small specs sharing topologies (TopoCache hits),
// 10% heavier jobs at the scaled operating point, rotating over four fixed
// specs that do not share topologies. The fixed specs are the same in every
// run, like a popular set of requests: a job's cost varies severalfold with
// its topologies, and fixed specs drawn per seed set most of a run's
// latency (the heavy ones its p95). The unique jobs are drawn from the seed
// for each session afresh. Every block of mixBlock jobs carries the exact
// shares (2 heavy, 9 repeats, 9 unique) in its own shuffled order, so seeds
// differ in which jobs come when, not in how much work a session or any
// stretch of it carries.
func serveMix(seed uint64, session, n int, tiny bool) []mixJob {
	r := rand.New(rand.NewSource(int64(seed) + int64(session)<<32))
	var fixed [4]serve.JobSpec
	for i := range fixed {
		fixed[i] = smallSpec(uint64(i+1), tiny)
		fixed[i].ShareTopology = true
	}
	jobs := make([]mixJob, 0, n)
	var heavyN, repeatN int
	for len(jobs) < n {
		m := min(mixBlock, n-len(jobs))
		heavy, repeats := m/10, m*45/100
		block := make([]mixJob, m)
		for i := range block {
			s := r.Uint64()>>1 + 1
			var spec serve.JobSpec
			switch {
			case i < heavy:
				spec = serve.JobSpec{Figure: "6c", Xs: []float64{0.1, 0.2}, Reps: 2, Seed: uint64(heavyN%4 + 1)}
				if tiny {
					spec = smallSpec(spec.Seed, tiny)
					spec.Xs = []float64{0.1}
				}
				heavyN++
			case i < heavy+repeats:
				spec = fixed[repeatN%len(fixed)]
				repeatN++
			default:
				spec = smallSpec(s, tiny)
			}
			block[i] = newMixJob(spec)
		}
		r.Shuffle(m, func(i, j int) { block[i], block[j] = block[j], block[i] })
		jobs = append(jobs, block...)
	}
	return jobs
}

// newMixJob keys spec by its JSON form.
func newMixJob(spec serve.JobSpec) mixJob {
	key, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a JobSpec always marshals
	}
	return mixJob{spec: spec, key: string(key)}
}

// directSweep builds the sweep a JobSpec denotes, through the same public
// constructors the CLI uses, so its CSV is what the daemon must return.
func directSweep(spec serve.JobSpec) (*experiment.Sweep, error) {
	p := netmodel.ScaledDefaultParams()
	if spec.NumSU > 0 {
		p.NumSU = spec.NumSU
	}
	if spec.NumPU > 0 {
		p.NumPU = spec.NumPU
	}
	if spec.Area > 0 {
		p.Area = spec.Area
	}
	s, err := experiment.NewFigureSweep(spec.Figure, p, spec.Seed)
	if err != nil {
		return nil, err
	}
	s.Reps = spec.Reps
	s.PUModel = spectrum.ModelExact
	s.ShareTopology = spec.ShareTopology
	s.Workers = 1
	if len(spec.Xs) > 0 {
		s.Xs = spec.Xs
	}
	return s, nil
}

// collections counts the ADDC and Coolest runs one job performs.
func collections(spec serve.JobSpec) int {
	xs := len(spec.Xs)
	if xs == 0 {
		xs = 5 // Fig. 6c's p_t axis
	}
	return 2 * xs * spec.Reps
}

// daemon is an in-process addc-serve: the job server behind its HTTP
// handler on a loopback listener.
type daemon struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	done   chan struct{}
	dir    string
}

// queueDepth bounds the daemon's queue. It is four times addc-serve's
// default so that a stall of the shared host for a second or two shows as
// latency rather than as refused jobs; above capacity the queue still
// fills, which is what ends the rate ladder.
const queueDepth = 64

// startDaemon starts a daemon with nproc job workers and otherwise
// addc-serve's default bounds over a fresh state directory, and waits until
// it answers.
func startDaemon(dir string, nproc int) (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: nproc, QueueDepth: queueDepth, StateDir: dir})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, err
	}
	d := &daemon{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String(),
		// At most nproc keep-alive connections carry all the load.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}},
		done:   make(chan struct{}),
		dir:    dir,
	}
	go func() {
		defer close(d.done)
		_ = d.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop closes the listener and connections, drains the job server and
// waits for the HTTP goroutine to end.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = d.http.Shutdown(ctx) // a timeout only leaves idle connections to Close
	d.http.Close()
	d.client.CloseIdleConnections()
	d.srv.Drain(time.Second)
	<-d.done
}

// call makes one HTTP request and returns the status and body.
func (d *daemon) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// jobOutcome is what the load generator observed for one job.
type jobOutcome struct {
	due, sent, done time.Time
	id              string
	err             error
	csv             string
	record          serve.Job
	submitS, fetchS float64
	key             string
	collections     int
}

// session is one open-loop run of a job sequence at a fixed rate.
type session struct {
	jobs      []mixJob
	outcomes  []jobOutcome
	start     time.Time
	end       time.Time
	lateP95   float64
	latencies []float64 // completed jobs in schedule order, seconds from due to result
}

func (s *session) failed() int {
	n := 0
	for _, o := range s.outcomes {
		if o.err != nil {
			n++
		}
	}
	return n
}

// exponentialGaps draws n exponential gaps between arrivals from seed,
// scaled so the schedule spans exactly n/rate seconds: the arrival pattern
// varies with the seed, the load does not.
func exponentialGaps(n int, rate float64, seed uint64) []float64 {
	r := rand.New(rand.NewSource(int64(seed)))
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = r.ExpFloat64()
	}
	scale := float64(n) / rate / sum(gaps)
	for i := range gaps {
		gaps[i] *= scale
	}
	return gaps
}

// pacedGaps spaces n arrivals evenly at rate.
func pacedGaps(n int, rate float64) []float64 {
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = 1 / rate
	}
	return gaps
}

// runSession submits jobs from one sender, the first at once and each next
// one the matching gap (in seconds) after the one before, while one poller
// watches every job in flight and fetches each result as soon as its job is
// done. A refused or failed job counts as failed, and as missing any
// latency limit.
func (d *daemon) runSession(jobs []mixJob, gaps []float64, rec *recorder) *session {
	s := &session{jobs: jobs, outcomes: make([]jobOutcome, len(jobs))}
	offset := 0.0
	s.start = time.Now()
	for i := range jobs {
		s.outcomes[i].due = s.start.Add(time.Duration(offset * float64(time.Second)))
		s.outcomes[i].key = jobs[i].key
		s.outcomes[i].collections = collections(jobs[i].spec)
		offset += gaps[i]
	}

	inflight := make(chan int, len(jobs)) // sized to the sends, so the sender never blocks
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(inflight)
		for i := range jobs {
			o := &s.outcomes[i]
			time.Sleep(time.Until(o.due))
			body, err := json.Marshal(jobs[i].spec)
			if err != nil {
				o.err = err
				continue
			}
			o.sent = time.Now()
			_, end := rec.begin("serve.submit", fmt.Sprintf("job%d", i), -1)
			status, resp, err := d.call(http.MethodPost, "/v1/jobs", body)
			o.submitS = end()
			var sub struct {
				ID string `json:"id"`
			}
			switch {
			case err != nil:
				o.err = err
			case status != http.StatusAccepted:
				o.err = fmt.Errorf("submit refused: %d %s", status, bytes.TrimSpace(resp))
			default:
				if o.err = json.Unmarshal(resp, &sub); o.err == nil {
					o.id = sub.ID
				}
			}
			if o.err == nil {
				inflight <- i
			}
		}
	}()
	go func() {
		defer wg.Done()
		var watching []int
		open := true
		for open || len(watching) > 0 {
			// Take every newly submitted job, then poll each one in flight.
			for drained := false; open && !drained; {
				select {
				case i, ok := <-inflight:
					if !ok {
						open = false
					} else {
						watching = append(watching, i)
					}
				default:
					drained = true
				}
			}
			kept := watching[:0]
			for _, i := range watching {
				if !d.poll(&s.outcomes[i], i, rec) {
					kept = append(kept, i)
				}
			}
			watching = kept
			if open || len(watching) > 0 {
				time.Sleep(pollInterval)
			}
		}
	}()
	wg.Wait()
	s.end = time.Now()

	var late []float64
	for _, o := range s.outcomes {
		if !o.sent.IsZero() {
			late = append(late, o.sent.Sub(o.due).Seconds())
		}
		if o.err == nil {
			s.latencies = append(s.latencies, o.done.Sub(o.due).Seconds())
		}
	}
	s.lateP95 = quantile(late, 0.95)
	return s
}

// poll checks one job; it reports whether the job has left flight (its
// result fetched, or failed).
func (d *daemon) poll(o *jobOutcome, i int, rec *recorder) bool {
	req := fmt.Sprintf("job%d", i)
	_, end := rec.begin("serve.poll", req, -1)
	status, body, err := d.call(http.MethodGet, "/v1/jobs/"+o.id, nil)
	end()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("job status: %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &o.record)
	}
	if err != nil {
		o.err = err
		return true
	}
	switch o.record.State {
	case serve.StateQueued, serve.StateRunning:
		return false
	case serve.StateDone:
	default:
		o.err = fmt.Errorf("job %s ended %s: %s", o.id, o.record.State, o.record.Error)
		return true
	}
	_, end = rec.begin("serve.fetch", req, -1)
	status, body, err = d.call(http.MethodGet, "/v1/jobs/"+o.id+"/result?format=csv", nil)
	o.fetchS = end()
	o.done = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("result: %d", status)
	}
	o.err = err
	o.csv = string(body)
	return true
}

// references runs each distinct spec of jobs not already in refs directly
// through experiment.Sweep at Workers=1, on the given number of goroutines,
// and stores the CSVs by key. It returns the collections per second each
// of those sweeps achieved (meaningful with one goroutine).
func references(jobs []mixJob, refs map[string]string, goroutines int) ([]float64, error) {
	var todo []mixJob
	for _, j := range jobs {
		if _, ok := refs[j.key]; !ok {
			refs[j.key] = ""
			todo = append(todo, j)
		}
	}
	csvs := make([]string, len(todo))
	errs := make([]error, len(todo))
	rates := make([]float64, len(todo))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(todo); i += goroutines {
				s, err := directSweep(todo[i].spec)
				if err != nil {
					errs[i] = err
					continue
				}
				start := time.Now()
				res, err := s.Run()
				rates[i] = float64(collections(todo[i].spec)) / time.Since(start).Seconds()
				if err != nil {
					errs[i] = err
					continue
				}
				csvs[i] = res.FormatCSV()
			}
		}(g)
	}
	wg.Wait()
	for i, j := range todo {
		if errs[i] != nil {
			return nil, errs[i]
		}
		refs[j.key] = csvs[i]
	}
	return rates, nil
}

// account counts a session's jobs and checks each result against its
// reference.
func (b *bench) account(s *session, refs map[string]string) {
	for _, o := range s.outcomes {
		err := o.err
		if err == nil && o.csv != refs[o.key] {
			err = fmt.Errorf("job %s CSV differs from a direct Sweep.Run of its spec", o.id)
		}
		b.op(err)
	}
}

// latencyWindow is how many consecutive jobs of the latency session one
// p95 is taken over (see windowedP95): two mix blocks, so every window holds
// four heavy jobs, one of each heavy spec.
const latencyWindow = 2 * mixBlock

// rungP95 is a ladder rung's p95 latency, with every failed or refused
// job counted as missing the limit, and whether the rung passes: p95 within
// the limit and a backlog that drained within the limit after the last
// scheduled submission.
func (s *session) rungP95() (float64, bool) {
	lat := append([]float64(nil), s.latencies...)
	for i := 0; i < s.failed(); i++ {
		lat = append(lat, math.Inf(1))
	}
	p95 := quantile(lat, 0.95)
	drain := s.end.Sub(s.outcomes[len(s.outcomes)-1].due).Seconds()
	return p95, p95 <= latencyLimit && drain <= latencyLimit
}

// sessionJobs sizes a session: enough jobs for secs seconds at rate, and
// never fewer than min.
func sessionJobs(rate, secs float64, min int) int {
	n := int(rate * secs)
	if n < min {
		n = min
	}
	return n
}

// setupDaemon sets the daemon up setupRepeats times and keeps the last one;
// it returns the median set-up time and the first-job sessions, whose
// results the caller checks. One set-up starts a daemon over a fresh state
// directory and takes it through its first job, a small fixed spec, to the
// fetched result: the path a cold daemon takes to serving, with enough work
// in it (tens of milliseconds) that the host's sub-millisecond jitter does
// not set the figure.
func (b *bench) setupDaemon() (*daemon, float64, []*session, error) {
	first := []mixJob{newMixJob(smallSpec(1, b.tiny))}
	var setups []float64
	var firsts []*session
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("state%d", i))
		secs, err := timed(func() error {
			var err error
			if d, err = startDaemon(dir, b.nproc); err != nil {
				return err
			}
			s := d.runSession(first, []float64{0}, nil)
			firsts = append(firsts, s)
			return s.outcomes[0].err
		})
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, secs)
	}
	return d, median(setups), firsts, nil
}

// runServeMix is the end-to-end run of serve-mix: a latency session at the
// nominal rate, then the rate ladder, then the single-worker references
// every result is checked against.
func runServeMix(b *bench) error {
	d, setup, firsts, err := b.setupDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	b.set("setup_s", setup)
	nominalJobs, rungSecs, minRung := b.sessionSizes()
	jobs := serveMix(b.seed, 0, nominalJobs, b.tiny)

	nominal := d.runSession(jobs, exponentialGaps(len(jobs), nominalRate, b.seed), nil)
	var collected int
	for _, o := range nominal.outcomes {
		if o.err == nil {
			collected += o.collections
		}
	}
	wall := nominal.end.Sub(nominal.start).Seconds()
	b.set("wall_s", wall)
	b.set("runs_per_s", float64(collected)/wall)
	b.set("job_p50_s", quantile(nominal.latencies, 0.5))
	b.set("job_p95_s", windowedP95(nominal.latencies, latencyWindow))

	// The single-worker reference sweeps of the latency session's specs,
	// which runs_per_s_1w is the median rate of, run half here and half
	// after the ladder, so that the figure samples more than one stretch of
	// the run.
	refs := map[string]string{}
	rates1, err := references(jobs[:len(jobs)/2], refs, 1)
	if err != nil {
		return fmt.Errorf("reference sweeps: %w", err)
	}

	// The point below the ladder is (0 jobs/s, 0 s); the latency session is
	// not a rung, since its bursty schedule answers to job_p95_s, not to the
	// ladder's limit. A rung passes if one of rungAttempts sessions at
	// its rate, each with a fresh mix, passes: a burst of the exponential
	// schedule or a stall of the host fails one short session, not the
	// daemon's capacity. The first rung to fail ends the climb; where
	// its best session still completed every job, the rate at which p95
	// crosses the limit is interpolated between that session's p95 and the
	// last rung that passed, so the figure does not jump a whole rung on
	// noise.
	var rungs []*session
	var rungJobs []mixJob
	var maxRate, lastRate, lastP95 float64
	climb := func(rate, p95 float64, ok bool) bool {
		if !ok {
			if !math.IsInf(p95, 1) && p95 > lastP95 {
				maxRate = lastRate + (rate-lastRate)*(latencyLimit-lastP95)/(p95-lastP95)
			}
			return false
		}
		maxRate, lastRate, lastP95 = rate, rate, p95
		return true
	}
	for k, rate := range ladderRates {
		ok, p95 := false, math.Inf(1)
		for a := 0; a < rungAttempts && !ok; a++ {
			i := 1 + k*rungAttempts + a
			mix := serveMix(b.seed, i, sessionJobs(rate, rungSecs, minRung), b.tiny)
			rungJobs = append(rungJobs, mix...)
			rung := d.runSession(mix, pacedGaps(len(mix), rate), nil)
			rungs = append(rungs, rung)
			p, passed := rung.rungP95()
			ok, p95 = passed, min(p95, p)
		}
		if !climb(rate, p95, ok) {
			break
		}
	}
	b.set("max_rate_jobs_per_s", maxRate)

	more, err := references(jobs, refs, 1)
	if err != nil {
		return fmt.Errorf("reference sweeps: %w", err)
	}
	b.set("runs_per_s_1w", median(append(rates1, more...)))
	if _, err := references(append(rungJobs, firsts[0].jobs...), refs, b.nproc); err != nil {
		return fmt.Errorf("reference sweeps: %w", err)
	}
	b.account(nominal, refs)
	// Refusals above capacity are what ends the ladder, so rung jobs are not
	// operations of the run, nor are the set-up jobs; every result they
	// returned is still checked.
	b.checkResults(append(rungs, firsts...), refs)
	return nil
}

// checkResults reports every result the sessions returned that differs from
// its reference.
func (b *bench) checkResults(sessions []*session, refs map[string]string) {
	for _, s := range sessions {
		for _, o := range s.outcomes {
			if o.err == nil && o.csv != refs[o.key] {
				b.problem("job %s CSV differs from a direct Sweep.Run of its spec", o.id)
			}
		}
	}
}

// sessionSizes sizes the latency session to --seconds at the nominal rate,
// in whole p95 windows, and a ladder rung to a twelfth of --seconds.
func (b *bench) sessionSizes() (nominal int, rungSecs float64, minRung int) {
	if b.tiny {
		return 12, 0.2, 4
	}
	n := sessionJobs(nominalRate, b.seconds, minJobs)
	return (n + latencyWindow - 1) / latencyWindow * latencyWindow, b.seconds / 12, 40
}

// tracedServeMix is the per-layer run of serve-mix: the nominal session
// once plain and once with spans around every HTTP call under the CPU
// profiler, reading queue and execution times from the job records.
func tracedServeMix(b *bench, out io.Writer) error {
	d, _, firsts, err := b.setupDaemon()
	if err != nil {
		return err
	}
	defer d.stop()
	nominalJobs, _, _ := b.sessionSizes()
	plainJobs := serveMix(b.seed, 0, nominalJobs, b.tiny)
	tracedJobs := serveMix(b.seed, 1, nominalJobs, b.tiny)

	plain := d.runSession(plainJobs, exponentialGaps(len(plainJobs), nominalRate, b.seed), nil)
	rec := newRecorder()
	var traced *session
	attr, err := profiled(b.tracePath("cpu.pprof"), func() error {
		traced = d.runSession(tracedJobs, exponentialGaps(len(tracedJobs), nominalRate, b.seed+1), rec)
		return nil
	})
	if err != nil {
		return err
	}
	refs := map[string]string{}
	if _, err := references(append(append(plainJobs, tracedJobs...), firsts[0].jobs...), refs, b.nproc); err != nil {
		return fmt.Errorf("reference sweeps: %w", err)
	}
	b.account(plain, refs)
	b.account(traced, refs)
	b.checkResults(firsts, refs)

	var submit, wait, exec, fetch []float64
	for _, o := range traced.outcomes {
		if o.err != nil {
			continue
		}
		submit = append(submit, o.submitS)
		fetch = append(fetch, o.fetchS)
		wait = append(wait, float64(o.record.StartedAt-o.record.SubmittedAt)/1e3)
		exec = append(exec, float64(o.record.FinishedAt-o.record.StartedAt)/1e3)
	}
	st := d.srv.Stats()
	b.set("serve.submit_s", median(submit))
	b.set("serve.queue_wait_s", median(wait))
	b.set("serve.exec_s", median(exec))
	b.set("serve.fetch_s", median(fetch))
	b.set("serve.rejected", float64(st.RejectedFull+st.RejectedRate))
	b.set("serve.queue_peak", float64(st.QueuedPeak))
	b.set("serve.running_peak", float64(st.RunningPeak))
	stateBytes, err := dirBytes(d.dir)
	if err != nil {
		return err
	}
	b.set("serve.state_bytes_per_job", float64(stateBytes)/float64(st.Submitted))
	lookups := st.TopoCache.Hits + st.TopoCache.Misses
	b.set("experiment.topo_cache_hit_ratio", ratio(st.TopoCache.Hits, lookups))
	b.set("core.workspace_reuse_ratio", ratio(st.Workspaces.Reuses, st.Workspaces.Gets))
	b.set("bench.gen_late_p95_s", traced.lateP95)
	b.set("bench.trace_overhead_frac", median(traced.latencies)/median(plain.latencies)-1)
	for _, m := range perLayer {
		if _, ok := b.metrics[m.name]; !ok && !strings.HasPrefix(m.name, "cpu_share.") {
			b.set(m.name, 0) // layers inside the daemon's jobs: see the CPU split
		}
	}
	b.setShares(attr)
	fmt.Fprintf(out, "# nominal session p50 %.4fs plain, %.4fs traced; %d spans in %s; profile %s\n",
		median(plain.latencies), median(traced.latencies), len(rec.spans), b.tracePath("spans.jsonl"), b.tracePath("cpu.pprof"))
	return rec.write(b.tracePath("spans.jsonl"))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	return total, err
}
