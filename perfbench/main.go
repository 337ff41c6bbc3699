// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public packages, checks every output it
// produces, and prints one JSON result as the last line of standard output:
//
//	perfbench --workload fig6c --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured on the
// user-facing paths (experiment.Sweep, the addc-serve HTTP API). With
// --trace 1 it runs the workload again through a harness that times calls
// into each layer's public functions and takes a CPU profile, and the result
// carries the per-layer metrics instead. README.md explains the workloads,
// the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricValue is one named measurement in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	workdir  string
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 9

// defaultSeed is the seed whose outputs and exact-repeat counts are pinned
// in digests.json.
const defaultSeed = 1

// bench accumulates one run's outcome: operations attempted and failed,
// correctness problems, and the metrics to print.
type bench struct {
	options
	nproc     int
	dir       string // per-run scratch directory under workdir
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metricValue
	digests   digestFile
}

// op records one timed operation's outcome; a non-nil error counts it as
// failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem("operation failed: %v", err)
	}
}

// problem records an output mismatch or other correctness failure.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	b.problems = append(b.problems, msg)
}

// set records a metric, taking its unit from the catalog.
func (b *bench) set(name string, v float64) {
	unit, ok := catalogUnit(name)
	if !ok {
		panic("perfbench: metric not in catalog: " + name)
	}
	b.metrics[name] = metricValue{Value: v, Unit: unit}
}

func main() {
	res, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its result. Context lines (the host
// block, the per-layer trace summary) go to out before the result line.
func run(args []string, out io.Writer) (*result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; every input is generated from it")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long the timed phase runs")
	trace := fs.Int("trace", 0, "1: per-layer traced run instead of the end-to-end run")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every input (the self-test uses it)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for journals and daemon state")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}

	b := &bench{options: o, nproc: runtime.GOMAXPROCS(0), metrics: map[string]metricValue{}}
	var err error
	if b.digests, err = loadDigests(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	if b.dir, err = os.MkdirTemp(o.workdir, o.workload+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)

	host := hostInfo(b.nproc)
	hostLine, err := json.Marshal(host)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# host %s\n", hostLine)

	if o.trace {
		err = w.traced(b, out)
	} else {
		err = w.run(b)
		b.set("peak_rss_mb", peakRSSMB())
	}
	if err != nil {
		return nil, err
	}
	if err := b.complete(); err != nil {
		return nil, err
	}
	if b.attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted no operation", o.workload)
	}
	return &result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}, nil
}

// complete checks that the run emitted exactly the metrics its mode owes.
func (b *bench) complete() error {
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	var missing []string
	for _, m := range want {
		if _, ok := b.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 || len(b.metrics) != len(want) {
		sort.Strings(missing)
		return fmt.Errorf("workload %s emitted %d metrics, want %d (missing %v)", b.workload, len(b.metrics), len(want), missing)
	}
	return nil
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
