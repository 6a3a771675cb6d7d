package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var workloadNames = []string{"oneshot", "closed-loop", "long-uptime"}

// runTiny runs one workload at test size, for its fixed set of rounds or
// lifetimes only unless extra sets -seconds, and returns its output lines
// and parsed result.
func runTiny(t *testing.T, workload string, seed int, trace int, extra ...string) ([]string, jsonResult) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := append([]string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", "0",
		"-trace", fmt.Sprint(trace), "-tiny"}, extra...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace=%d exited %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	return lines, res
}

type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func declared(defs []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string, len(defs))
	for _, d := range defs {
		m[d.Name] = d.Unit
	}
	return m
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := append([]string(nil), workloadNames...); !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		what string
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		got := make(map[string]string)
		for _, d := range c.defs {
			got[d.name] = d.unit
		}
		if want := declared(c.json); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: program declares %v, BENCHMARK.json %v", c.what, got, want)
		}
	}
}

// Every workload, traced or not, prints exactly the metrics BENCHMARK.json
// declares for the mode, with their units, and passes its own checks.
func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloadNames {
		for trace, defs := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			_, res := runTiny(t, wl, 1, trace)
			got := make(map[string]string)
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if want := declared(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d prints %v, want %v", wl, trace, keys(got), keys(want))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Counts and deterministic metrics repeat exactly for one seed; timings
// are left out. The end-to-end quality metrics come from the fixed set, so
// a longer run, which completes more rounds or lifetimes, reports the
// same values.
func TestDeterministicMetricsRepeat(t *testing.T) {
	deterministic := map[int][]string{
		0: {"ok_share", "delay_ratio", "load_factor_max"},
		1: {"lp.pivots_per_op", "lp.degenerate_share", "lp.phase1_share", "flow.augmentations_per_op",
			"daemon.warm_share", "daemon.moves_per_tick"},
	}
	for _, wl := range workloadNames {
		for trace, names := range deterministic {
			linesA, a := runTiny(t, wl, 5, trace)
			linesB, b := runTiny(t, wl, 5, trace)
			if a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("%s trace=%d: attempted/failed %d/%d then %d/%d", wl, trace, a.Attempted, a.Failed, b.Attempted, b.Failed)
			}
			for _, name := range names {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s trace=%d: %s = %v then %v", wl, trace, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if pa, pb := predDelay(linesA), predDelay(linesB); pa != pb {
				t.Errorf("%s trace=%d: %q then %q", wl, trace, pa, pb)
			}
		}
		linesA, a := runTiny(t, wl, 5, 0)
		linesL, long := runTiny(t, wl, 5, 0, "-seconds", "0.3")
		if long.Attempted <= a.Attempted {
			t.Errorf("%s: a 0.3-s run attempted %d ops, the fixed set alone %d", wl, long.Attempted, a.Attempted)
		}
		for _, name := range deterministic[0] {
			if a.Metrics[name] != long.Metrics[name] {
				t.Errorf("%s: %s = %v on the fixed set alone, %v in a 0.3-s run", wl, name, a.Metrics[name].Value, long.Metrics[name].Value)
			}
		}
		if pa, pl := predDelay(linesA), predDelay(linesL); pa != pl {
			t.Errorf("%s: %q on the fixed set alone, %q in a 0.3-s run", wl, pa, pl)
		}
	}
	// A different seed gives different inputs.
	_, a := runTiny(t, "oneshot", 5, 0)
	_, c := runTiny(t, "oneshot", 6, 0)
	if a.Metrics["delay_ratio"] == c.Metrics["delay_ratio"] {
		t.Errorf("seeds 5 and 6 gave the same delay_ratio %v", a.Metrics["delay_ratio"].Value)
	}
}

func predDelay(lines []string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, "pred_delay") {
			return l
		}
	}
	return ""
}

// The traced run's spans nest inside their op, every op has one root of
// the workload's kinds, and each layer the workload calls has spans.
func TestSpansNestInsideOps(t *testing.T) {
	roots := map[string][]string{
		"oneshot":     {"oneshot.solve", "oneshot.sources"},
		"closed-loop": {"closed.step"},
		"long-uptime": {"long.epoch"},
	}
	layers := map[string][]string{
		"oneshot":     {"graph.build", "placement.instance", "agg.fold", "placement.qpp", "placement.td", "placement.ssqpp", "lp.ssqpp"},
		"closed-loop": {"netsim.run", "heat.ingest", "heat.drift_probe", "daemon.tick"},
		"long-uptime": {"heat.observe", "heat.drift_probe", "daemon.tick"},
	}
	for _, wl := range workloadNames {
		path := filepath.Join(t.TempDir(), "spans.jsonl")
		runTiny(t, wl, 2, 1, "-spans", path)
		spans := readSpans(t, path)
		if len(spans) == 0 {
			t.Fatalf("%s: no spans written", wl)
		}
		tr := &tracer{spans: spans}
		if err := tr.checkNesting(); err != nil {
			t.Errorf("%s: %v", wl, err)
		}
		opRoot := make(map[int]spanRec)
		names := make(map[string]bool)
		for _, s := range spans {
			names[s.Name] = true
			if s.Parent == 0 {
				if _, dup := opRoot[s.Op]; dup {
					t.Errorf("%s: op %d has two root spans", wl, s.Op)
				}
				opRoot[s.Op] = s
			}
		}
		for _, s := range spans {
			if _, ok := opRoot[s.Op]; !ok {
				t.Fatalf("%s: span %d (%s) belongs to op %d, which has no root", wl, s.ID, s.Name, s.Op)
			}
		}
		for _, root := range opRoot {
			if !contains(roots[wl], root.Name) {
				t.Errorf("%s: unexpected op root %s", wl, root.Name)
			}
		}
		for _, name := range layers[wl] {
			if !names[name] {
				t.Errorf("%s: no %s span", wl, name)
			}
		}
	}
}

// A span that leaves a child's interval, or an op whose layer spans leave
// much of its time unexplained, is caught.
func TestTraceChecksCatchFaults(t *testing.T) {
	tr := &tracer{spans: []spanRec{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "layer", Start: 50, End: 120},
	}}
	if err := tr.checkNesting(); err == nil {
		t.Error("checkNesting accepted a span that ends after its parent")
	}

	// Ten ops of about 1 ms each, traced 1% slower than untraced.
	traced := make([]float64, 10)
	untraced := make([]float64, 10)
	for i := range traced {
		untraced[i] = 1e-3 * (1 + 0.001*float64(i%3))
		traced[i] = 1.01 * untraced[i]
	}
	total := sum(traced)
	if _, _, gap, ok := traceVerdict(traced, untraced, 0.999*total); !ok {
		t.Errorf("a gap of %.4f against a 1%% overhead was not within it", gap)
	}
	if _, _, gap, ok := traceVerdict(traced, untraced, 0.9*total); ok {
		t.Errorf("a gap of %.4f against a 1%% overhead was within it", gap)
	}

	// The same through setShares: the run counts the failed check.
	r := newResult()
	if err := setShares(r, traced, untraced, map[string]float64{"placement.qpp_share": 0.5 * total}); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Errorf("a 50%% unexplained op time counted %d failures, want 1", r.failed)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func readSpans(t *testing.T, path string) []spanRec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []spanRec
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s spanRec
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "0"},
		{"-workload", "oneshot", "-seconds", "0", "-trace", "2"},
		{"-workload", "oneshot", "-seconds", "-1"},
		{"-workload", "oneshot"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v printed a result", args)
		}
	}
}
