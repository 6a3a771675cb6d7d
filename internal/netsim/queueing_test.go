package netsim

import (
	"math"
	"reflect"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func TestRunQueueingValidation(t *testing.T) {
	ins, p := buildInstance(t)
	bad := []QueueConfig{
		{Instance: nil, Placement: p, ArrivalRate: 1, AccessesPerClient: 1},
		{Instance: ins, Placement: p, ArrivalRate: 0, AccessesPerClient: 1},
		{Instance: ins, Placement: p, ArrivalRate: 1, AccessesPerClient: 0},
		{Instance: ins, Placement: p, ArrivalRate: 1, AccessesPerClient: 1, ServiceMean: -1},
	}
	for i, cfg := range bad {
		if _, err := RunQueueing(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestZeroServiceMatchesPropagation: with instantaneous service, the mean
// latency is the round-trip analogue of AvgΔ (request out, response back:
// 2× the one-way max distance per access, in expectation).
func TestZeroServiceMatchesPropagation(t *testing.T) {
	ins, p := buildInstance(t)
	stats, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: p,
		ArrivalRate: 0.01, ServiceMean: 0,
		AccessesPerClient: 3000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * ins.AvgMaxDelay(p)
	if rel := math.Abs(stats.AvgLatency-want) / want; rel > 0.05 {
		t.Fatalf("latency %v, want ≈ %v (rel %v)", stats.AvgLatency, want, rel)
	}
	if stats.AvgWait != 0 {
		t.Fatalf("zero-service wait %v, want 0", stats.AvgWait)
	}
}

// TestMM1Wait: a single served node fed by Poisson arrivals behaves like an
// M/M/1 queue; at utilization ρ the mean wait is ρ·s/(1-ρ).
func TestMM1Wait(t *testing.T) {
	// Star graph: node 0 hosts the only element; clients everywhere.
	g := graph.Star(6)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := quorum.NewSystem("single", 1, [][]int{{0}})
	if err != nil {
		t.Fatal(err)
	}
	caps := []float64{1, 1, 1, 1, 1, 1}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(1))
	if err != nil {
		t.Fatal(err)
	}
	pl := placement.NewPlacement([]int{0})

	// 6 clients × rate λ each; service mean s at cap-1 node 0.
	// ρ = 6λs = 0.5 with λ = 1/12, s = 1.
	s := 1.0
	lambda := 1.0 / 12
	stats, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: pl,
		ArrivalRate: lambda, ServiceMean: s,
		AccessesPerClient: 8000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rho := 6 * lambda * s
	wantWait := rho * s / (1 - rho) // M/M/1: W_q = ρ/(μ-λ) with μ = 1/s
	if rel := math.Abs(stats.AvgWait-wantWait) / wantWait; rel > 0.15 {
		t.Fatalf("M/M/1 wait %v, want ≈ %v (rel %v)", stats.AvgWait, wantWait, rel)
	}
	if rel := math.Abs(stats.Utilization[0]-rho) / rho; rel > 0.1 {
		t.Fatalf("utilization %v, want ≈ %v", stats.Utilization[0], rho)
	}
}

// TestQueueingLoadDelayCoupling: the same placement under increasing
// arrival rate sees increasing latency — the coupling the paper's capacity
// constraints are there to prevent.
func TestQueueingLoadDelayCoupling(t *testing.T) {
	ins, p := buildInstance(t)
	var last float64
	for i, rate := range []float64{0.01, 0.05, 0.1} {
		stats, err := RunQueueing(QueueConfig{
			Instance: ins, Placement: p,
			ArrivalRate: rate, ServiceMean: 0.8,
			AccessesPerClient: 2000, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && stats.AvgLatency <= last {
			t.Fatalf("latency did not grow with load: %v after %v", stats.AvgLatency, last)
		}
		last = stats.AvgLatency
	}
}

// TestQueueingColocationPenalty: colocating all elements on one node makes
// queueing strictly worse than spreading, at equal propagation quality —
// the load-dispersion argument of §1 made quantitative.
func TestQueueingColocationPenalty(t *testing.T) {
	g := graph.Complete(6) // uniform propagation so only queueing differs
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Grid(2)
	caps := []float64{3, 3, 3, 3, 3, 3}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(4))
	if err != nil {
		t.Fatal(err)
	}
	colocated := placement.NewPlacement([]int{0, 0, 0, 0})
	spread := placement.NewPlacement([]int{0, 1, 2, 3})
	run := func(pl placement.Placement) float64 {
		stats, err := RunQueueing(QueueConfig{
			Instance: ins, Placement: pl,
			ArrivalRate: 0.12, ServiceMean: 1.2,
			AccessesPerClient: 2500, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.AvgLatency
	}
	co := run(colocated)
	sp := run(spread)
	if co <= sp {
		t.Fatalf("colocated latency %v not worse than spread %v", co, sp)
	}
}

func TestQueueingDeterministicBySeed(t *testing.T) {
	ins, p := buildInstance(t)
	cfg := QueueConfig{
		Instance: ins, Placement: p,
		ArrivalRate: 0.05, ServiceMean: 0.5,
		AccessesPerClient: 200, Seed: 11,
	}
	a, err := RunQueueing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunQueueing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.AvgWait != b.AvgWait {
		t.Fatalf("same seed, different stats: %v vs %v", a.AvgLatency, b.AvgLatency)
	}
}

func TestQueueingAllAccessesComplete(t *testing.T) {
	ins, p := buildInstance(t)
	stats, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: p,
		ArrivalRate: 0.2, ServiceMean: 1,
		AccessesPerClient: 100, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 * ins.M.N(); stats.Accesses != want {
		t.Fatalf("completed %d accesses, want %d", stats.Accesses, want)
	}
}

// TestQueueingHonoursRates is the regression test for the queueing
// simulator ignoring Instance.Rates: with the whole rate mass on one
// client, that client issues every access — as under Run — and the
// zero-rate clients issue none.
func TestQueueingHonoursRates(t *testing.T) {
	ins, p := buildInstance(t)
	defer func() { ins.Rates = nil }()
	const apc = 10
	n := ins.M.N()
	rates := make([]float64, n)
	rates[4] = 1
	if err := ins.SetRates(rates); err != nil {
		t.Fatal(err)
	}
	runHeat := heat.New(heat.Options{})
	if _, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: apc, Seed: 5, Heat: runHeat}); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(4096, 1, 0)
	qHeat := heat.New(heat.Options{})
	stats, err := RunQueueing(QueueConfig{
		Instance: ins, Placement: p,
		ArrivalRate: 0.5, ServiceMean: 0.2,
		AccessesPerClient: apc, Seed: 5, Recorder: rec, Heat: qHeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses != n*apc {
		t.Fatalf("queueing completed %d accesses, want %d", stats.Accesses, n*apc)
	}
	want := make([]int64, n)
	want[4] = int64(n * apc)
	for name, ht := range map[string]*heat.Sketch{"run": runHeat, "queueing": qHeat} {
		got := ht.ClientTotals()
		for v := 0; v < n; v++ {
			var c int64
			if v < len(got) {
				c = got[v]
			}
			if c != want[v] {
				t.Fatalf("%s: client %d issued %d accesses, want %d (totals %v)", name, v, c, want[v], got)
			}
		}
	}
	for _, tr := range rec.Traces() {
		if tr.Client != 4 {
			t.Fatalf("zero-rate client %d issued an access", tr.Client)
		}
	}
}

// TestQueueingWeightedRatesRaiseLoad is the regression test for weighted
// clients issuing their apportioned accesses at the unweighted per-client
// rate: with all rate on one client, that client's n·AccessesPerClient
// accesses spread over n times the run length, so the weighted run was
// slower and emptier than the uniform one (Clock 35.2 → 159.5, AvgWait
// 0.176 → 0.0115). Scaled by its share, the hot client offers the same
// total load over the same span, concentrated on its quorums.
func TestQueueingWeightedRatesRaiseLoad(t *testing.T) {
	ins, p := buildInstance(t)
	defer func() { ins.Rates = nil }()
	run := func() *QueueStats {
		stats, err := RunQueueing(QueueConfig{
			Instance: ins, Placement: p,
			ArrivalRate: 0.5, ServiceMean: 0.2,
			AccessesPerClient: 10, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	uniform := run()
	rates := make([]float64, ins.M.N())
	rates[4] = 1
	if err := ins.SetRates(rates); err != nil {
		t.Fatal(err)
	}
	weighted := run()
	if weighted.Clock > 1.5*uniform.Clock {
		t.Fatalf("weighted run lasts %v, more than 1.5× the uniform %v", weighted.Clock, uniform.Clock)
	}
	if weighted.AvgWait < uniform.AvgWait {
		t.Fatalf("weighted mean wait %v below the uniform %v", weighted.AvgWait, uniform.AvgWait)
	}
}

// TestQueueingUniformRatesMatchNil: explicit uniform rates apportion the
// same count to every client, so the run reproduces the unweighted one
// bit for bit.
func TestQueueingUniformRatesMatchNil(t *testing.T) {
	ins, p := buildInstance(t)
	defer func() { ins.Rates = nil }()
	run := func() (*QueueStats, []AccessTrace) {
		rec := NewRecorder(4096, 1, 0)
		stats, err := RunQueueing(QueueConfig{
			Instance: ins, Placement: p,
			ArrivalRate: 0.5, ServiceMean: 0.2,
			AccessesPerClient: 20, Seed: 9, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, rec.Traces()
	}
	baseStats, baseTraces := run()
	uni := make([]float64, ins.M.N())
	for i := range uni {
		uni[i] = 0.1
	}
	if err := ins.SetRates(uni); err != nil {
		t.Fatal(err)
	}
	stats, traces := run()
	if !reflect.DeepEqual(baseStats, stats) || !reflect.DeepEqual(baseTraces, traces) {
		t.Fatalf("uniform explicit rates diverge from nil rates: %+v vs %+v", stats, baseStats)
	}
}
