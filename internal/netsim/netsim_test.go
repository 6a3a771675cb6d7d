package netsim

import (
	"math"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func buildInstance(t *testing.T) (*placement.Instance, placement.Placement) {
	t.Helper()
	g := graph.Grid2D(3, 3)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Grid(2)
	st := quorum.Uniform(sys.NumQuorums())
	caps := make([]float64, 9)
	for i := range caps {
		caps[i] = 1
	}
	ins, err := placement.NewInstance(m, caps, sys, st)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewPlacement([]int{0, 1, 3, 4})
	return ins, p
}

func TestRunValidation(t *testing.T) {
	ins, p := buildInstance(t)
	if _, err := Run(Config{Instance: nil, Placement: p, AccessesPerClient: 1}); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := Run(Config{Instance: ins, Placement: placement.NewPlacement([]int{0}), AccessesPerClient: 1}); err == nil {
		t.Fatal("short placement accepted")
	}
	if _, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: 0}); err == nil {
		t.Fatal("zero accesses accepted")
	}
	if _, err := Run(Config{Instance: ins, Placement: p, AccessesPerClient: 1, InterAccessTime: -1}); err == nil {
		t.Fatal("negative think time accepted")
	}
	// An unknown mode used to run with every latency 0.
	if _, err := Run(Config{Instance: ins, Placement: p, Mode: Mode(2), AccessesPerClient: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestNonFiniteInputsRejected is the regression test for float knobs that
// slipped past the range checks: NaN fails every comparison and +Inf passes
// the lower bounds, so a NaN ArrivalRate silently dropped every access, a
// NaN think time ran accesses back to back, and an infinite one pushed
// Clock to +Inf. Every simulator must return an error instead.
func TestNonFiniteInputsRejected(t *testing.T) {
	ins, p := buildInstance(t)
	nan, inf := math.NaN(), math.Inf(1)
	run := func(c Config) error { _, err := Run(c); return err }
	fail := func(c FailureConfig) error { _, err := RunWithFailures(c); return err }
	queue := func(c QueueConfig) error { _, err := RunQueueing(c); return err }
	base := Config{Instance: ins, Placement: p, AccessesPerClient: 5, Seed: 1}
	fbase := FailureConfig{Instance: ins, Placement: p, AccessesPerClient: 5, Seed: 1, NodeFailureProb: 0.1}
	qbase := QueueConfig{Instance: ins, Placement: p, AccessesPerClient: 5, Seed: 1, ArrivalRate: 1, ServiceMean: 0.1}
	cases := []struct {
		name string
		run  func(workers int) error
	}{
		{"Run/InterAccessTime=NaN", func(w int) error { c := base; c.InterAccessTime, c.Workers = nan, w; return run(c) }},
		{"Run/InterAccessTime=+Inf", func(w int) error { c := base; c.InterAccessTime, c.Workers = inf, w; return run(c) }},
		{"RunWithFailures/NodeFailureProb=NaN", func(w int) error { c := fbase; c.NodeFailureProb, c.Workers = nan, w; return fail(c) }},
		{"RunWithFailures/RetryPenalty=NaN", func(w int) error { c := fbase; c.RetryPenalty, c.Workers = nan, w; return fail(c) }},
		{"RunWithFailures/RetryPenalty=+Inf", func(w int) error { c := fbase; c.RetryPenalty, c.Workers = inf, w; return fail(c) }},
		{"RunQueueing/ArrivalRate=NaN", func(w int) error { c := qbase; c.ArrivalRate, c.Workers = nan, w; return queue(c) }},
		{"RunQueueing/ArrivalRate=+Inf", func(w int) error { c := qbase; c.ArrivalRate, c.Workers = inf, w; return queue(c) }},
		{"RunQueueing/ServiceMean=NaN", func(w int) error { c := qbase; c.ServiceMean, c.Workers = nan, w; return queue(c) }},
		{"RunQueueing/ServiceMean=+Inf", func(w int) error { c := qbase; c.ServiceMean, c.Workers = inf, w; return queue(c) }},
	}
	for _, tc := range cases {
		for _, w := range []int{0, 1, 3} {
			if err := tc.run(w); err == nil {
				t.Errorf("%s workers=%d: accepted", tc.name, w)
			}
		}
	}
	// The finite bases themselves are valid.
	if run(base) != nil || fail(fbase) != nil || queue(qbase) != nil {
		t.Fatal("finite base configurations rejected")
	}
}

func TestRunBasicAccounting(t *testing.T) {
	ins, p := buildInstance(t)
	const per = 50
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: per, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses != per*9 {
		t.Fatalf("accesses = %d, want %d", stats.Accesses, per*9)
	}
	// Every Grid(2) quorum has 3 elements, so total hits = 3 × accesses.
	var hits int64
	for _, h := range stats.NodeHits {
		hits += h
	}
	if hits != int64(3*stats.Accesses) {
		t.Fatalf("total hits = %d, want %d", hits, 3*stats.Accesses)
	}
	if stats.Clock <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	ins, p := buildInstance(t)
	cfg := Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 20, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.Clock != b.Clock {
		t.Fatalf("same seed produced different runs: %v vs %v", a.AvgLatency, b.AvgLatency)
	}
	cfg.Seed = 8
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency == c.AvgLatency && a.Clock == c.Clock {
		t.Log("different seeds produced identical stats (possible but unlikely)")
	}
}

// TestParallelMatchesAnalytic: the sampled mean latency converges to the
// analytic Avg Δ_f within a loose statistical tolerance.
func TestParallelMatchesAnalytic(t *testing.T) {
	ins, p := buildInstance(t)
	want := ins.AvgMaxDelay(p)
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(stats.AvgLatency-want) / want; rel > 0.05 {
		t.Fatalf("sampled AvgΔ = %v, analytic %v (rel err %v)", stats.AvgLatency, want, rel)
	}
}

func TestSequentialMatchesAnalytic(t *testing.T) {
	ins, p := buildInstance(t)
	want := ins.AvgTotalDelay(p)
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Sequential, AccessesPerClient: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(stats.AvgLatency-want) / want; rel > 0.05 {
		t.Fatalf("sampled AvgΓ = %v, analytic %v (rel err %v)", stats.AvgLatency, want, rel)
	}
}

// TestEmpiricalLoadMatchesPlacementLoad: sampled node loads converge to
// load_f(v).
func TestEmpiricalLoadMatchesPlacementLoad(t *testing.T) {
	ins, p := buildInstance(t)
	want := ins.NodeLoads(p)
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if math.Abs(stats.EmpiricalLoad[v]-want[v]) > 0.03 {
			t.Fatalf("node %d: empirical load %v, analytic %v", v, stats.EmpiricalLoad[v], want[v])
		}
	}
}

// TestPerClientMatchesAnalytic: each client's sampled mean converges to
// its own Δ_f(v).
func TestPerClientMatchesAnalytic(t *testing.T) {
	ins, p := buildInstance(t)
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 6000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < ins.M.N(); v++ {
		want := ins.MaxDelayFrom(v, p)
		if want == 0 {
			if stats.PerClient[v] != 0 {
				t.Fatalf("client %d: sampled %v, analytic 0", v, stats.PerClient[v])
			}
			continue
		}
		if rel := math.Abs(stats.PerClient[v]-want) / want; rel > 0.08 {
			t.Fatalf("client %d: sampled %v, analytic %v (rel %v)", v, stats.PerClient[v], want, rel)
		}
	}
}

func TestThinkTimeAdvancesClock(t *testing.T) {
	ins, p := buildInstance(t)
	fast, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 50, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 50, InterAccessTime: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Clock <= fast.Clock {
		t.Fatalf("think time did not extend the run: %v <= %v", slow.Clock, fast.Clock)
	}
	// Latency statistics must be unaffected by think time.
	if math.Abs(slow.AvgLatency-fast.AvgLatency) > 0.2 {
		t.Fatalf("think time changed latency distribution: %v vs %v", slow.AvgLatency, fast.AvgLatency)
	}
}

func TestModeString(t *testing.T) {
	if Parallel.String() != "parallel" || Sequential.String() != "sequential" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestPercentiles(t *testing.T) {
	ins, p := buildInstance(t)
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: 500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	p50 := stats.Percentile(0.5)
	p99 := stats.Percentile(0.99)
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	if min, max := stats.Percentile(0), stats.Percentile(1); min > p50 || p99 > max {
		t.Fatalf("quantiles out of order: min %v p50 %v p99 %v max %v", min, p50, p99, max)
	}
	if got := len(stats.Latencies()); got != stats.Accesses {
		t.Fatalf("latency samples %d != accesses %d", got, stats.Accesses)
	}
	// Latencies() is a copy.
	l := stats.Latencies()
	l[0] = -1
	if stats.Latencies()[0] == -1 {
		t.Fatal("Latencies returned internal slice")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(2) did not panic")
		}
	}()
	stats.Percentile(2)
}

// TestPercentileInterpolation pins the R-7 estimator on hand-computed
// values: the quantile position q·(n-1) interpolates linearly between
// adjacent order statistics.
func TestPercentileInterpolation(t *testing.T) {
	cases := []struct {
		name string
		lat  []float64
		q    float64
		want float64
	}{
		{"median-even", []float64{1, 2, 3, 4}, 0.5, 2.5},      // pos 1.5 → (2+3)/2
		{"median-odd", []float64{1, 2, 3, 4, 5}, 0.5, 3},      // pos 2 exactly
		{"p90-four", []float64{1, 2, 3, 4}, 0.9, 3.7},         // pos 2.7 → 3·0.3 + 4·0.7
		{"p25-four", []float64{4, 1, 3, 2}, 0.25, 1.75},       // unsorted input; pos 0.75
		{"p95-five", []float64{10, 20, 30, 40, 50}, 0.95, 48}, // pos 3.8 → 40·0.2 + 50·0.8
		{"min", []float64{3, 1, 2}, 0, 1},
		{"max", []float64{3, 1, 2}, 1, 3},
		{"single", []float64{7}, 0.5, 7},
		{"empty", nil, 0.5, 0},
	}
	for _, tc := range cases {
		s := &Stats{latencies: tc.lat}
		if got := s.Percentile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestRunRateWeightedClients checks the §6 rates extension in the
// simulator: with Instance.Rates set, each client issues its
// rate-proportional share of the n·AccessesPerClient total, zero-rate
// clients issue nothing, and the empirical load stays normalized.
func TestRunRateWeightedClients(t *testing.T) {
	ins, p := buildInstance(t)
	const per = 40
	n := 9
	rates := make([]float64, n)
	rates[2] = 3
	rates[7] = 1
	if err := ins.SetRates(rates); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: per, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Shares: client 2 gets 3/4 of n·per = 270, client 7 gets 90.
	if stats.Accesses != n*per {
		t.Fatalf("accesses = %d, want %d", stats.Accesses, n*per)
	}
	for v := 0; v < n; v++ {
		if v != 2 && v != 7 && stats.PerClient[v] != 0 {
			t.Fatalf("zero-rate client %d recorded latency %v", v, stats.PerClient[v])
		}
	}
	if stats.PerClient[2] <= 0 || stats.PerClient[7] <= 0 {
		t.Fatalf("weighted clients idle: %v", stats.PerClient)
	}
	sum := 0.0
	for _, l := range stats.EmpiricalLoad {
		sum += l
	}
	// Each Grid(2) quorum has 3 elements, so loads sum to 3 per access.
	if math.Abs(sum-3) > 1e-9 {
		t.Fatalf("empirical load sums to %v, want 3", sum)
	}

	// Uniform rates must be bitwise-identical to nil rates (same seed).
	if err := ins.SetRates(nil); err != nil {
		t.Fatal(err)
	}
	base, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: per, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = 2.5
	}
	if err := ins.SetRates(uni); err != nil {
		t.Fatal(err)
	}
	same, err := Run(Config{Instance: ins, Placement: p, Mode: Parallel, AccessesPerClient: per, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if base.AvgLatency != same.AvgLatency || base.Accesses != same.Accesses || base.Clock != same.Clock {
		t.Fatalf("uniform explicit rates diverge from nil rates: %+v vs %+v", base, same)
	}
}
