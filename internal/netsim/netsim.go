// Package netsim provides a discrete-event simulator for quorum accesses
// over a network, standing in for the wide-area deployments that motivate
// the paper (§1). Clients issue quorum accesses according to an access
// strategy; each access sends one message to every element of the sampled
// quorum, with message latency equal to the shortest-path distance of the
// hosting node. Two access modes mirror the paper's two cost models:
//
//   - Parallel: all messages are sent at once and the access completes when
//     the last one arrives — the max-delay cost δ_f(v, Q) (Eq. 1);
//   - Sequential: elements are contacted one after another and the access
//     completes after the summed latencies — the total-delay cost γ_f(v, Q).
//
// The simulator records per-access completion latencies and per-node hit
// counts, allowing empirical estimates of Avg Δ_f, Avg Γ_f, and load_f(v)
// that the tests compare against the analytic evaluators in
// internal/placement.
package netsim

import (
	"fmt"
	"math"
	"sort"

	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
)

// Mode selects the access cost model.
type Mode int

// Access modes.
const (
	Parallel   Mode = iota // max-delay (Eq. 1)
	Sequential             // total-delay (§5)
)

func (m Mode) String() string {
	switch m {
	case Parallel:
		return "parallel"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a simulation run.
type Config struct {
	Instance  *placement.Instance
	Placement placement.Placement
	Mode      Mode
	// AccessesPerClient is the number of quorum accesses each client
	// issues. Clients are all nodes of the network (the paper's model);
	// set Instance.Rates to weight them — each client then issues its
	// rate-proportional share of the n·AccessesPerClient total, so an
	// aggregated demand population shapes the simulated access mix the
	// same way it shapes the analytic objective.
	AccessesPerClient int
	// InterAccessTime is the mean of the exponential think time between a
	// client's accesses (virtual time units). Zero means back-to-back.
	InterAccessTime float64
	Seed            int64
	// Recorder, when non-nil, captures per-access traces and time-series
	// samples for this run. When nil, the run falls back to the recorder
	// installed with SetDefaultRecorder, if any; with neither, tracing is
	// off and costs one nil check per access.
	Recorder *Recorder
	// Heat, when non-nil, folds every access into the workload sketch
	// (per-client issue counts and per-node message hits, keyed by the
	// virtual-time epoch of the access's issue). Nil falls back to the
	// SetDefaultHeat sketch; with neither, observation is off at one nil
	// check per access.
	Heat *heat.Sketch
	// Workers is the number of worker shards the run uses (parallel.go):
	// clients are partitioned over Workers event wheels and results merge
	// in canonical order, so for a fixed Seed every worker count produces
	// bitwise-identical Stats, traces, SLO windows, time-series samples
	// and heat sketches. 0 means one worker; negative values are an error.
	Workers int
}

// Stats is the outcome of a simulation run.
type Stats struct {
	Mode          Mode
	Accesses      int
	AvgLatency    float64   // mean access completion latency
	PerClient     []float64 // mean latency per client
	NodeHits      []int64   // messages received per node
	EmpiricalLoad []float64 // NodeHits normalized by total accesses
	Clock         float64   // virtual time at which the last access completed
	latencies     []float64 // raw access latencies, for quantiles
	sorted        []float64 // lazily cached ascending copy of latencies
}

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of the access latency
// distribution, e.g. Percentile(0.99) for the p99, interpolating linearly
// between order statistics (the R-7 estimator): the quantile position
// q·(n-1) falls between two sorted samples and the result blends them by
// the fractional part. It panics if q is outside [0, 1]; it returns 0 when
// no accesses were recorded.
func (s *Stats) Percentile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("netsim: quantile %v outside [0,1]", q))
	}
	if len(s.latencies) == 0 {
		return 0
	}
	sorted := s.sortedLatencies()
	n := len(sorted)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo+1 >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedLatencies returns an ascending copy of the latency samples, sorted
// once and cached: summary paths (the quorumstat table calls Percentile four
// times per system) reuse the same sorted slice instead of re-sorting per
// call. The cache refreshes if samples were appended since it was built.
func (s *Stats) sortedLatencies() []float64 {
	if len(s.sorted) != len(s.latencies) {
		s.sorted = append(s.sorted[:0], s.latencies...)
		sort.Float64s(s.sorted)
	}
	return s.sorted
}

// Latencies returns a copy of the raw per-access latency samples.
func (s *Stats) Latencies() []float64 {
	return append([]float64(nil), s.latencies...)
}

// clientAccessCounts returns how many accesses each client issues: the
// uniform AccessesPerClient when rates is nil, otherwise each client's
// rate-proportional share of the n·AccessesPerClient total, apportioned by
// the largest-remainder method so the counts sum to exactly
// n·AccessesPerClient (the counting identities audited downstream depend on
// the exact total). Zero-rate clients issue no accesses: a leftover unit
// only ever lands on a positive fractional remainder, and there are at
// least as many of those as leftover units.
func clientAccessCounts(rates []float64, n, perClient int) []int {
	counts := make([]int, n)
	if rates == nil {
		for v := range counts {
			counts[v] = perClient
		}
		return counts
	}
	rsum := 0.0
	for _, r := range rates {
		rsum += r
	}
	total := n * perClient
	rem := make([]float64, n)
	assigned := 0
	for v := range counts {
		s := float64(total) * rates[v] / rsum
		c := int(math.Floor(s))
		counts[v] = c
		rem[v] = s - float64(c)
		assigned += c
	}
	if leftover := total - assigned; leftover > 0 {
		order := make([]int, n)
		for v := range order {
			order[v] = v
		}
		sort.Slice(order, func(i, j int) bool {
			if rem[order[i]] != rem[order[j]] {
				return rem[order[i]] > rem[order[j]]
			}
			return order[i] < order[j]
		})
		for i := 0; i < leftover; i++ {
			counts[order[i]]++
		}
	}
	return counts
}

// event is a pending access start of one client. A client has at most one
// pending event, so (at, client) is a canonical total order.
type event struct {
	at             float64
	client, access int
}

// eventQueue is a binary min-heap over (at, client).
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].client < q[j].client
}

func (q *eventQueue) push(e event) {
	*q = append(*q, e)
	i := len(*q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*q).less(i, p) {
			break
		}
		(*q)[i], (*q)[p] = (*q)[p], (*q)[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	old := *q
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*q = old[:last]
	q.down()
	return top
}

// replaceTop replaces the minimum with e, which must not order before it,
// and restores the heap: a client's next access takes the place of the
// one just processed at the cost of one sift-down instead of a pop and a
// push.
func (q eventQueue) replaceTop(e event) {
	q[0] = e
	q.down()
}

// down sifts the root down to its place.
func (q eventQueue) down() {
	n := len(q)
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && q.less(l, m) {
			m = l
		}
		if r < n && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
}

// Run executes the simulation and returns aggregate statistics.
func Run(cfg Config) (*Stats, error) {
	if err := validateCommon(cfg.Instance, cfg.Placement, cfg.AccessesPerClient, cfg.Workers); err != nil {
		return nil, err
	}
	if err := validateMode(cfg.Mode); err != nil {
		return nil, err
	}
	if !finite(cfg.InterAccessTime) || cfg.InterAccessTime < 0 {
		return nil, fmt.Errorf("netsim: InterAccessTime = %v, want finite >= 0", cfg.InterAccessTime)
	}
	return runSharded(cfg)
}

// validateCommon checks the settings all three simulators share.
func validateCommon(ins *placement.Instance, pl placement.Placement, perClient, workers int) error {
	if ins == nil {
		return fmt.Errorf("netsim: nil instance")
	}
	if err := ins.Validate(pl); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if perClient <= 0 {
		return fmt.Errorf("netsim: AccessesPerClient = %d, want > 0", perClient)
	}
	if workers < 0 {
		return fmt.Errorf("netsim: Workers = %d, want >= 0 (0 means one worker)", workers)
	}
	return nil
}

// validateMode rejects a Mode that is neither access cost model (the
// access loop would otherwise treat it as one of them silently).
func validateMode(m Mode) error {
	if m != Parallel && m != Sequential {
		return fmt.Errorf("netsim: %v is neither parallel nor sequential", m)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite. Range checks such
// as x < 0 pass NaN, so every float knob goes through this first.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
