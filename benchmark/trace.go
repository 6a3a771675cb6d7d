package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"quorumplace/internal/obs"
)

// spanRec is one completed span of the benchmark's own tracer. Spans of one
// op share its id; the op's root span has Parent 0.
type spanRec struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

// tracer records spans around the benchmark's calls into each layer and
// keeps them in memory until the run ends. A nil *tracer records nothing,
// which is how untraced runs call the same op code.
type tracer struct {
	epoch time.Time
	spans []spanRec
	open  []int // indexes into spans, innermost last
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one; with none open it
// starts a new op.
func (t *tracer) begin(name string) {
	rec := spanRec{ID: len(t.spans) + 1, Name: name}
	if n := len(t.open); n > 0 {
		parent := t.spans[t.open[n-1]]
		rec.Parent, rec.Op = parent.ID, parent.Op
	} else {
		t.ops++
		rec.Op = t.ops
	}
	t.open = append(t.open, len(t.spans))
	rec.Start = int64(time.Since(t.epoch))
	t.spans = append(t.spans, rec)
}

// end closes the innermost open span.
func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = now
}

// do runs f inside a span named name (or just runs it, untraced).
func (t *tracer) do(name string, f func() error) error {
	if t == nil {
		return f()
	}
	t.begin(name)
	err := f()
	t.end()
	return err
}

// timed runs f, inside a span named name when traced, and returns its
// duration in seconds.
func (t *tracer) timed(name string, f func() error) (float64, error) {
	t0 := time.Now()
	err := t.do(name, f)
	return since(t0), err
}

// layerTimes counts the ops whose root span is named root and sums, over
// them, each span name's self time: its duration minus the part its child
// spans cover. The root's own self time is the time no layer span accounts
// for. Times are in seconds.
func (t *tracer) layerTimes(root string) (ops int, self map[string]float64) {
	self = make(map[string]float64)
	childSum := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	rootName := make(map[int]string)
	for _, s := range t.spans {
		if s.Parent == 0 {
			rootName[s.Op] = s.Name
		}
	}
	for _, s := range t.spans {
		if rootName[s.Op] != root {
			continue
		}
		self[s.Name] += float64(s.dur()-childSum[s.ID]) / 1e9
		if s.Parent == 0 {
			ops++
		}
	}
	return ops, self
}

// opTimes returns, in op order, the duration in seconds of every op whose
// root span is named root, less the time of its spans named leave: work
// only the traced run does.
func (t *tracer) opTimes(root, leave string) []float64 {
	pos := make(map[int]int)
	var out []float64
	for _, s := range t.spans {
		if s.Parent == 0 && s.Name == root {
			pos[s.Op] = len(out)
			out = append(out, float64(s.dur())/1e9)
		}
	}
	for _, s := range t.spans {
		if i, ok := pos[s.Op]; ok && s.Name == leave {
			out[i] -= float64(s.dur()) / 1e9
		}
	}
	return out
}

// checkNesting verifies that every span lies inside its parent's interval
// and belongs to its parent's op.
func (t *tracer) checkNesting() error {
	byID := make(map[int]spanRec, len(t.spans))
	for _, s := range t.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		byID[s.ID] = s
	}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			return fmt.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			return fmt.Errorf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		case s.Start < p.Start || s.End > p.End:
			return fmt.Errorf("span %d (%s) [%d,%d] leaves its parent %s [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// write stores the spans as JSONL, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counterTap reads the program's own obs counters around the traced ops.
// The collector is installed only while an op runs, so untraced replays
// and the benchmark's checks never count.
type counterTap struct {
	c    *obs.Collector
	sums map[string]int64
}

func newCounterTap() *counterTap {
	return &counterTap{c: obs.NewCollector(), sums: make(map[string]int64)}
}

func (t *counterTap) on() {
	t.c.Reset()
	obs.Enable(t.c)
}

func (t *counterTap) off() {
	obs.Disable()
	for k, v := range t.c.Snapshot().Counters {
		t.sums[k] += v
	}
	t.c.Reset()
}

func (t *counterTap) get(name string) float64 { return float64(t.sums[name]) }

// pair runs one op traced and replays it untraced, the untraced run first
// on even k so neither side always finds the caches warm. Counters are read
// around the traced run only.
func pair[T any](k int, tap *counterTap, traced, plain func() (T, error)) (t, p T, err error) {
	var errP error
	if k%2 == 0 {
		p, errP = plain()
	}
	tap.on()
	t, err = traced()
	tap.off()
	if k%2 == 1 {
		p, errP = plain()
	}
	if err == nil && errP != nil {
		err = fmt.Errorf("untraced replay: %v", errP)
	}
	return t, p, err
}

// setLPFlow reports the LP and min-cost-flow counters per op.
func (t *counterTap) setLPFlow(r *result, ops int, what string) {
	pivots := t.get("lp.pivots")
	r.set("lp.pivots_per_op", pivots/float64(ops), ops, "simplex pivots per "+what)
	r.set("lp.degenerate_share", ratio(t.get("lp.degenerate_pivots"), pivots), ops, "degenerate pivots / pivots")
	r.set("lp.phase1_share", ratio(t.get("lp.phase1_iters"), pivots), ops, "phase-1 iterations / pivots")
	r.set("flow.augmentations_per_op", t.get("flow.augmentations")/float64(ops), ops, "min-cost-flow augmentations per "+what)
}

// opShares are the per-layer metrics that split traced op time by layer
// self time. A layer a workload never calls reports 0.
var opShares = []string{
	"graph.build_share", "placement.instance_share", "agg.fold_share",
	"placement.qpp_share", "placement.td_share", "netsim.run_share",
	"heat.observe_share", "heat.ingest_share", "heat.drift_share",
	"daemon.replan_share",
}

// setShares reports each layer's self time as a share of the traced op
// time, the tracing overhead against the untraced replays, and the share
// of op time no reported layer accounts for. traced and untraced are the
// per-op times of the traced ops and of their untraced replays, in the
// same order; layers maps an opShares name to that layer's total self time
// in seconds. If the unaccounted share is not within the tracing overhead,
// the run fails that check.
func setShares(r *result, traced, untraced []float64, layers map[string]float64) error {
	if len(traced) != len(untraced) || len(traced) == 0 {
		return fmt.Errorf("%d traced ops but %d untraced replays", len(traced), len(untraced))
	}
	opTotal, ops := sum(traced), len(traced)
	covered := 0.0
	for _, name := range opShares {
		t, ok := layers[name]
		if !ok {
			absent(r, name)
			continue
		}
		r.set(name, t/opTotal, ops, "self time / traced op time")
		covered += t
	}
	overhead, se, gap, ok := traceVerdict(traced, untraced, covered)
	r.set("op_ms", opTotal/float64(ops)*1e3, ops, "traced op time")
	r.set("trace.overhead_share", overhead, ops, "traced / untraced op time - 1")
	r.set("trace.unattributed_share", gap, ops, "op time the layer self times leave unexplained")
	within := "within"
	if !ok {
		within = "NOT within"
		r.fail(false, "trace: the layer self times leave %.4f%% of op time unexplained, more than the tracing overhead %.4f%% ± 3 × %.4f%%",
			100*gap, 100*overhead, 100*se)
	}
	r.note("trace: layer self times add up to %.4f%% of traced op time; the gap %.4f%% is %s the tracing overhead %.4f%% (standard error %.4f%%)",
		100*covered/opTotal, 100*gap, within, 100*overhead, 100*se)
	return nil
}

// traceVerdict compares the share of traced op time that no layer span
// covers with the tracing overhead, traced / untraced op time - 1 over
// paired replays of the same ops. The overhead's standard error comes from
// the spread of the per-op differences. The gap is within the overhead if
// it is at most |overhead| plus three standard errors.
func traceVerdict(traced, untraced []float64, covered float64) (overhead, se, gap float64, ok bool) {
	tracedTotal, untracedTotal := sum(traced), sum(untraced)
	overhead = tracedTotal/untracedTotal - 1
	gap = 1 - covered/tracedTotal
	if n := len(traced); n > 1 {
		diffs := make([]float64, n)
		for i := range diffs {
			diffs[i] = traced[i] - untraced[i]
		}
		m, ss := mean(diffs), 0.0
		for _, d := range diffs {
			ss += (d - m) * (d - m)
		}
		se = math.Sqrt(ss/float64(n-1)*float64(n)) / untracedTotal
	}
	return overhead, se, gap, math.Abs(gap) <= math.Abs(overhead)+3*se
}

// absent reports per-layer metrics of layers a workload never calls as 0.
func absent(r *result, names ...string) {
	for _, name := range names {
		r.set(name, 0, 0, "layer not called on this workload")
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
