// Command benchmark is the repository's end-to-end benchmark. It generates
// one of three workloads from a seed, drives the placement stack through
// its public functions, checks every output, and prints every metric by
// name with its unit and sample count. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": 93, "failed": 0, "metrics": {"setup_s": {"value": 0.0123, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with all
// tracing off. With -trace 1 the run records spans around every call into
// a layer, reads the program's obs counters, replays each op untraced for
// the tracing overhead, and prints the per-layer metrics instead.
//
// Usage (normally through run.py, which builds the binary first):
//
//	benchmark -workload oneshot|closed-loop|long-uptime -seed N -seconds S -trace 0|1 [-spans FILE]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// heldOutSeed is never used while tuning the benchmark or a change; a later
// performance claim must also hold on it.
const heldOutSeed = 7919

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized inputs: one short round or lifetime
	spans    string // traced runs write their spans here as JSONL ("" = don't)
	commit   string
}

// workload runs one workload and fills in its result. Each one is a
// function of the options alone, so a seed fully determines its inputs.
type workload func(o options) (*result, error)

var workloads = map[string]workload{
	"oneshot":     runOneshot,
	"closed-loop": runClosedLoop,
	"long-uptime": runLongUptime,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "oneshot, closed-loop or long-uptime")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", -1, "measurement time (required); whole rounds or lifetimes run until it is used up")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "test-sized inputs")
	fs.StringVar(&o.spans, "spans", "", "traced runs write their spans to this JSONL file")
	fs.StringVar(&o.commit, "commit", "unknown", "commit or source hash to print with the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace %d, want 0 or 1\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: give -seconds, at least 0\n")
		return 2
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d held_out_seed=%d seconds=%g trace=%d\n",
		o.workload, o.seed, heldOutSeed, o.seconds, traceFlag)
	fmt.Fprintf(stdout, "nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.commit)
	res, err := wl(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if err := res.print(stdout, o.trace); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

// metricDef declares one reported metric. The lists below must match the
// end_to_end and per_layer entries of BENCHMARK.json (a test checks this).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wait_p50_ms", "ms"},
	{"wait_p90_ms", "ms"},
	{"work_per_s", "1/s"},
	{"ok_share", "share"},
	{"delay_ratio", "ratio"},
	{"load_factor_max", "ratio"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"op_ms", "ms"},
	{"graph.build_share", "share"},
	{"placement.instance_share", "share"},
	{"agg.fold_share", "share"},
	{"placement.qpp_share", "share"},
	{"placement.td_share", "share"},
	{"lp.ssqpp_share", "share"},
	{"placement.round_share", "share"},
	{"netsim.run_share", "share"},
	{"netsim.events_per_s", "1/s"},
	{"heat.observe_share", "share"},
	{"heat.ingest_share", "share"},
	{"heat.drift_share", "share"},
	{"heat.drift_first_share", "share"},
	{"heat.drift_last_share", "share"},
	{"daemon.replan_share", "share"},
	{"daemon.warm_share", "share"},
	{"daemon.moves_per_tick", "count"},
	{"lp.pivots_per_op", "count"},
	{"lp.degenerate_share", "share"},
	{"lp.phase1_share", "share"},
	{"flow.augmentations_per_op", "count"},
	{"trace.overhead_share", "share"},
	{"trace.unattributed_share", "share"},
}

// value is one measured metric: its value, the number of samples behind
// it, and what it means on the workload that produced it.
type value struct {
	v    float64
	n    int
	note string
}

// result is the outcome of one run.
//
// Every run first completes a fixed set of rounds or lifetimes, the same
// for a seed however fast the code runs, and then keeps going until the
// measurement time is used up. Timings cover every op; the quality and
// memory metrics and ok_share cover the fixed set only, so they stay a
// function of the seed and the placements alone.
type result struct {
	attempted, failed int // every op; failed: ops that errored or failed a check
	breaches          int // ticks that broke the per-tick capacity rule
	// The fixed set's ops, and those of them that failed or breached.
	fixedAttempted, fixedNotOK int
	failures                   []string // first few failure messages, for the log
	values                     map[string]value
	extra                      []string // further human-readable lines
}

func newResult() *result { return &result{values: make(map[string]value)} }

func (r *result) set(name string, v float64, n int, note string) {
	r.values[name] = value{v: v, n: n, note: note}
}

// op counts one attempted op; fixed says whether it belongs to the fixed set.
func (r *result) op(fixed bool) {
	r.attempted++
	if fixed {
		r.fixedAttempted++
	}
}

// fail counts one op that errored or failed a check, and keeps its message
// for the log.
func (r *result) fail(fixed bool, format string, args ...any) {
	r.failed++
	if fixed {
		r.fixedNotOK++
	}
	r.log("FAILED: "+format, args...)
}

// breach counts one tick that left a node above max(cap + p_max, pre-tick
// load): the known capacity ratchet, which the program does not yet rule
// out. It lowers ok_share but does not make the run incorrect.
func (r *result) breach(fixed bool, format string, args ...any) {
	r.breaches++
	if fixed {
		r.fixedNotOK++
	}
	r.log("BREACH: "+format, args...)
}

func (r *result) log(format string, args ...any) {
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and then the JSON result line.
// Every declared metric of the mode must be present.
func (r *result) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.attempted < 1 {
		return fmt.Errorf("no op attempted")
	}
	for _, m := range r.failures {
		fmt.Fprintln(w, m)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d breaches=%d failed_share=%.6g (failed and breached ops / attempted)\n",
		r.attempted, r.failed, r.breaches, float64(r.failed+r.breaches)/float64(r.attempted))
	fmt.Fprintf(w, "fixed set: attempted=%d failed or breached=%d\n", r.fixedAttempted, r.fixedNotOK)
	for _, line := range r.extra {
		fmt.Fprintln(w, line)
	}
	out := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		fmt.Fprintf(w, "metric %-27s %14.6g %-6s n=%-7d %s\n", d.name, v.v, d.unit, v.n, v.note)
		out.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
