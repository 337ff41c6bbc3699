package main

import (
	"io"
	"sort"
)

// workload is one named input set: an end-to-end run and a traced run.
type workload struct {
	run    func(b *bench) error
	traced func(b *bench, out io.Writer) error
}

var workloads = map[string]workload{
	"fig6c":      {run: runSweepWorkload(fig6cSpec), traced: tracedSweepWorkload(fig6cSpec)},
	"sweep-grid": {run: runSweepWorkload(gridSpec), traced: tracedSweepWorkload(gridSpec)},
	"serve-mix":  {run: runServeMix, traced: tracedServeMix},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one metric. For a per-layer metric, moves and on name the
// end-to-end metric it should move and the workload where it should move it
// (README.md has the full map with the reasons).
type metricDef struct {
	name, unit, better string
	moves, on          string
}

// endToEnd lists the metrics of an untraced run. Every workload emits all of
// them; README.md defines each one per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "runs_per_s", unit: "1/s", better: "higher"},
	{name: "runs_per_s_1w", unit: "1/s", better: "higher"},
	{name: "job_p50_s", unit: "s", better: "lower"},
	{name: "job_p95_s", unit: "s", better: "lower"},
	{name: "max_rate_jobs_per_s", unit: "1/s", better: "higher"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// cpuModules are the packages CPU profile samples are attributed to, plus
// runtime (GC workers, scheduler), syscall (kernel calls made outside any
// simulator package) and other (everything else: net/http, encoding/json,
// the harness itself, and the small simulator packages not listed).
var cpuModules = []string{
	"sim", "spectrum", "mac", "core", "netmodel", "geom", "graphx", "cds",
	"coolest", "rng", "experiment", "serve", "metrics", "trace", "runtime",
	"syscall", "other",
}

// perLayer lists the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"netmodel.deploy_s", "s", "lower", "runs_per_s", "sweep-grid"},
		{"netmodel.csr_s", "s", "lower", "runs_per_s", "sweep-grid"},
		{"cds.tree_s", "s", "lower", "runs_per_s", "sweep-grid"},
		{"coolest.tree_s", "s", "lower", "runs_per_s", "sweep-grid"},
		{"core.collect_s", "s", "lower", "wall_s", "fig6c"},
		{"core.collect_s.addc", "s", "lower", "wall_s", "fig6c"},
		{"core.collect_s.coolest", "s", "lower", "wall_s", "fig6c"},
		{"core.collect_calls", "count", "lower", "wall_s", "fig6c"},
		{"core.deadline_runs", "count", "lower", "wall_s", "fig6c"},
		{"core.workspace_reuse_ratio", "fraction", "higher", "job_p95_s", "serve-mix"},
		{"sim.events", "count", "lower", "wall_s", "fig6c"},
		{"sim.events_per_s", "1/s", "higher", "wall_s", "fig6c"},
		{"spectrum.pu_busy_frac", "fraction", "lower", "wall_s", "fig6c"},
		{"mac.tx", "count", "lower", "runs_per_s", "sweep-grid"},
		{"mac.aborts", "count", "lower", "runs_per_s", "sweep-grid"},
		{"mac.freezes", "count", "lower", "runs_per_s", "sweep-grid"},
		{"mac.contention_losses", "count", "lower", "runs_per_s", "sweep-grid"},
		{"mac.useful_ratio", "fraction", "higher", "runs_per_s", "sweep-grid"},
		{"experiment.sweep_s", "s", "lower", "runs_per_s", "sweep-grid"},
		{"experiment.sched_idle_frac", "fraction", "lower", "runs_per_s", "sweep-grid"},
		{"experiment.journal_flushes", "count", "lower", "runs_per_s", "sweep-grid"},
		{"experiment.journal_flush_s", "s", "lower", "runs_per_s", "sweep-grid"},
		{"experiment.journal_bytes", "B", "lower", "runs_per_s", "sweep-grid"},
		{"experiment.topo_cache_hit_ratio", "fraction", "higher", "job_p50_s", "serve-mix"},
		{"serve.submit_s", "s", "lower", "job_p95_s", "serve-mix"},
		{"serve.queue_wait_s", "s", "lower", "job_p95_s", "serve-mix"},
		{"serve.exec_s", "s", "lower", "job_p95_s", "serve-mix"},
		{"serve.fetch_s", "s", "lower", "job_p95_s", "serve-mix"},
		{"serve.rejected", "count", "lower", "max_rate_jobs_per_s", "serve-mix"},
		{"serve.queue_peak", "count", "lower", "max_rate_jobs_per_s", "serve-mix"},
		{"serve.running_peak", "count", "higher", "max_rate_jobs_per_s", "serve-mix"},
		{"serve.state_bytes_per_job", "B", "lower", "job_p95_s", "serve-mix"},
		{"runtime.gc_cpu_frac", "fraction", "lower", "runs_per_s", "sweep-grid"},
		{"runtime.alloc_bytes_per_run", "B", "lower", "runs_per_s", "sweep-grid"},
		{"runtime.allocs_per_run", "count", "lower", "runs_per_s", "sweep-grid"},
		{"bench.gen_late_p95_s", "s", "lower", "job_p95_s", "serve-mix"},
		{"bench.trace_overhead_frac", "fraction", "lower", "wall_s", "fig6c"},
	}
	shareMoves := map[string][2]string{
		"spectrum":   {"wall_s", "fig6c"},
		"sim":        {"wall_s", "fig6c"},
		"rng":        {"wall_s", "fig6c"},
		"mac":        {"runs_per_s", "sweep-grid"},
		"core":       {"runs_per_s", "sweep-grid"},
		"netmodel":   {"runs_per_s", "sweep-grid"},
		"geom":       {"runs_per_s", "sweep-grid"},
		"graphx":     {"runs_per_s", "sweep-grid"},
		"cds":        {"runs_per_s", "sweep-grid"},
		"coolest":    {"runs_per_s", "sweep-grid"},
		"experiment": {"runs_per_s", "sweep-grid"},
		"metrics":    {"runs_per_s", "sweep-grid"},
		"runtime":    {"runs_per_s", "sweep-grid"},
		"serve":      {"job_p50_s", "serve-mix"},
		"trace":      {"job_p50_s", "serve-mix"},
		"syscall":    {"job_p50_s", "serve-mix"},
		"other":      {"job_p50_s", "serve-mix"},
	}
	for _, m := range cpuModules {
		mv := shareMoves[m]
		defs = append(defs, metricDef{"cpu_share." + m, "fraction", "lower", mv[0], mv[1]})
	}
	return defs
}()

// exactRepeat names the per-layer counts that must not change at a fixed
// seed: a change there means the simulation's semantics changed, not its
// speed. digests.json pins their values at the default seed.
var exactRepeat = []string{"sim.events", "mac.tx", "mac.aborts", "core.deadline_runs", "spectrum.pu_busy_frac"}

func catalogUnit(name string) (string, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit, true
			}
		}
	}
	return "", false
}
