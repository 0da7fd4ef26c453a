package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one metric. The end-to-end and per-layer tables below
// mirror BENCHMARK.json at the repository root (a test keeps them in
// step); Moves records, for a per-layer metric, which end-to-end metric on
// which workload it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them in an untraced run.
//
// cpu_s, the CPU time of the measured work scaled by the speed reference
// (speed.go), stands for its wall time: on a shared host the hypervisor
// takes the CPU away for seconds at a time, and the kernel leaves that
// steal out of a process's CPU time but not out of the wall clock. The
// wall-clock figures sweep_s and jobs_per_s are still measured and
// printed, but carry no bound and sit in the per-layer table.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mean_power_mw", Unit: "mW", Better: "lower", Bound: 0.2},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of a traced run. A metric a
// workload does not exercise reads 0 there (dvs.scale_us on mul_sweep,
// the serve.* family on the sweeps). The client-observed latencies of
// serve_mix are among them: a sweep has no cache hits or misses, and an
// end-to-end metric must be measured on every workload. So are the
// wall-clock sweep_s and jobs_per_s (see endToEnd); a change that runs work
// in parallel shows on them and not on cpu_s.
var perLayer = []metricDef{
	{Name: "sweep_s", Unit: "s", Better: "lower", Moves: "its own wall time on every workload; cpu_s unless the work runs in parallel"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Moves: "its own wall rate on every workload; cpu_s unless the work runs in parallel"},
	{Name: "synth.evaluate_us", Unit: "us", Better: "lower", Moves: "cpu_s on mul_sweep"},
	{Name: "synth.evaluate_dvs_us", Unit: "us", Better: "lower", Moves: "cpu_s on dvs_sweep"},
	{Name: "synth.allocs_per_eval", Unit: "count", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "synth.bytes_per_eval", Unit: "B", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "synth.alloc_cores_us", Unit: "us", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "synth.evals_per_s", Unit: "1/s", Better: "higher", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "synth.evaluations", Unit: "count", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "synth.cache_hit_rate", Unit: "ratio", Better: "higher", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "sched.mobility_us", Unit: "us", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "sched.list_us", Unit: "us", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "phase.mobility_share", Unit: "ratio", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "phase.core_alloc_share", Unit: "ratio", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "phase.list_sched_share", Unit: "ratio", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "phase.comm_map_share", Unit: "ratio", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "phase.dvs_share", Unit: "ratio", Better: "lower", Moves: "cpu_s on dvs_sweep"},
	{Name: "dvs.scale_us", Unit: "us", Better: "lower", Moves: "cpu_s on dvs_sweep"},
	{Name: "ga.generations", Unit: "count", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "ga.self_share", Unit: "ratio", Better: "lower", Moves: "cpu_s on mul_sweep and dvs_sweep"},
	{Name: "verify.certify_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms on serve_mix"},
	{Name: "runctl.checkpoint_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms on serve_mix"},
	{Name: "runctl.checkpoints_per_job", Unit: "count", Better: "lower", Moves: "miss_p50_ms on serve_mix"},
	{Name: "cas.get_us", Unit: "us", Better: "lower", Moves: "hit_p50_ms on serve_mix"},
	{Name: "cas.put_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms on serve_mix"},
	{Name: "cas.hit_share", Unit: "ratio", Better: "higher", Moves: "cpu_s and jobs_per_s on serve_mix"},
	{Name: "specio.read_ms", Unit: "ms", Better: "lower", Moves: "setup_s on every workload"},
	{Name: "specio.canonical_us", Unit: "us", Better: "lower", Moves: "hit_p50_ms on serve_mix"},
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms and jobs_per_s on serve_mix"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms and jobs_per_s on serve_mix"},
	{Name: "serve.run_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms, jobs_per_s and cpu_s on serve_mix"},
	{Name: "serve.reveal_ms", Unit: "ms", Better: "lower", Moves: "miss_p50_ms and jobs_per_s on serve_mix"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "miss_p50_ms and jobs_per_s on serve_mix"},
	{Name: "serve.retries", Unit: "count", Better: "lower", Moves: "miss_p50_ms and jobs_per_s on serve_mix"},
	{Name: "miss_p50_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s and sweep_s on serve_mix"},
	{Name: "miss_p90_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s and sweep_s on serve_mix"},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Moves: "jobs_per_s and sweep_s on serve_mix"},
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Moves: "sweep_s on every workload"},
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// pctl is a nearest-rank percentile together with the sample count it came
// from and the number of samples ranked strictly above it.
type pctl struct {
	Pct    int
	Value  float64
	N      int
	Beyond int
}

// percentile returns the nearest-rank pct-th percentile of samples: the
// value at rank ceil(pct·n/100) of the sorted samples.
func percentile(samples []float64, pct int) pctl {
	p := pctl{Pct: pct, N: len(samples)}
	if p.N == 0 {
		return p
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := (pct*p.N + 99) / 100
	if rank < 1 {
		rank = 1
	}
	p.Value = s[rank-1]
	p.Beyond = p.N - rank
	return p
}

// Reportable says whether the percentile has at least ten samples beyond
// it, the least that makes a tail percentile mean anything.
func (p pctl) Reportable() bool { return p.Beyond >= 10 }

// value is one measured metric: its number, the sample count behind it and
// a free-form note for the human-readable line.
type value struct {
	V    float64
	N    int
	Note string
}

// report collects the metrics and the correctness tally of one run.
type report struct {
	log       io.Writer
	values    map[string]value
	attempted int
	failed    int
}

func newReport(log io.Writer) *report {
	return &report{log: log, values: map[string]value{}}
}

// set records a metric; name must be declared in one of the tables.
func (r *report) set(name string, v float64, n int, note string) {
	if lookup(name) == nil {
		panic("momobench: undeclared metric " + name)
	}
	r.values[name] = value{V: v, N: n, Note: note}
}

// setPctl records a latency percentile with its sample count, noting when
// it has fewer than ten samples beyond it.
func (r *report) setPctl(name string, p pctl) {
	note := fmt.Sprintf("p%d beyond=%d", p.Pct, p.Beyond)
	if !p.Reportable() {
		note += " (fewer than 10 samples beyond)"
	}
	r.set(name, p.Value, p.N, note)
}

// check counts one attempted operation and, when ok is false, one failure,
// logging what failed.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
	}
	return ok
}

// fail counts n failed operations that were attempted elsewhere.
func (r *report) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.attempted += n
	r.failed += n
	fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
}

func lookup(name string) *metricDef {
	for _, t := range [][]metricDef{endToEnd, perLayer} {
		for i := range t {
			if t[i].Name == name {
				return &t[i]
			}
		}
	}
	return nil
}

// result is the final line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints one human-readable line per metric of the table, then any
// other metric the run measured, then the final JSON line, which holds the
// table's metrics only. An end-to-end metric the workload did not measure
// is a benchmark defect and is returned as an error; an unmeasured
// per-layer metric reads 0 (the layer is not on this workload's path).
func (r *report) emit(w io.Writer, table []metricDef) error {
	res := result{Metrics: map[string]metricValue{}}
	for _, d := range table {
		v, ok := r.values[d.Name]
		if !ok && d.Bound > 0 {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		printMetric(w, d, v)
		res.Metrics[d.Name] = metricValue{Value: v.V, Unit: d.Unit}
	}
	for _, t := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range t {
			if v, ok := r.values[d.Name]; ok && res.Metrics[d.Name] == (metricValue{}) {
				printMetric(w, d, v)
			}
		}
	}
	res.Attempted = r.attempted
	res.Failed = r.failed
	res.Correct = r.failed == 0 && r.attempted > 0
	data, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	return nil
}

func printMetric(w io.Writer, d metricDef, v value) {
	line := fmt.Sprintf("metric %-28s %14.6f %-5s n=%d", d.Name, v.V, d.Unit, v.N)
	if v.Note != "" {
		line += " " + v.Note
	}
	if d.Moves != "" {
		line += " moves " + d.Moves
	}
	fmt.Fprintln(w, line)
}
