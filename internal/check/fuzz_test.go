package check

import (
	"reflect"
	"testing"

	"quorumplace/internal/exact"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
)

// Go-native fuzz targets: each derives a reproducible instance from the
// fuzzed seed via Gen/GenTiny and asserts the same invariants the
// deterministic sweep checks, so `go test -fuzz` explores instance space far
// beyond the 200-seed sweep. Seed corpora live under testdata/fuzz/ and run
// as ordinary test cases when fuzzing is off. All arguments are int64 so the
// corpus files stay trivially writable by hand.

// pick maps an arbitrary fuzzed int64 onto [0, n).
func pick(x int64, n int) int {
	v := int(x % int64(n))
	if v < 0 {
		v += n
	}
	return v
}

// FuzzSolveQPP checks the Theorem 1.2 pipeline on arbitrary generated
// instances: the result must satisfy the relay-bound certificate and the
// capacity blow-up, and the parallel solver must match the sequential one
// exactly.
func FuzzSolveQPP(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(17), int64(1))
	f.Add(int64(230), int64(2))
	f.Fuzz(func(t *testing.T, seed, alphaSel int64) {
		ci := Gen(seed)
		ins := ci.Instance
		if err := AuditInstance(ins); err != nil {
			t.Fatalf("instance [%s]: %v", ci.Desc, err)
		}
		alpha := sweepAlphas[pick(alphaSel, len(sweepAlphas))]
		res, err := placement.SolveQPP(ins, alpha)
		if err != nil {
			t.Fatalf("solve [%s]: %v", ci.Desc, err)
		}
		if err := AuditQPP(ins, res); err != nil {
			t.Fatalf("audit [%s]: %v", ci.Desc, err)
		}
		par, err := placement.SolveQPPParallel(ins, alpha, 2)
		if err != nil {
			t.Fatalf("parallel solve [%s]: %v", ci.Desc, err)
		}
		if !reflect.DeepEqual(par, res) {
			t.Fatalf("parallel/sequential divergence [%s]:\n  sequential %+v\n  parallel   %+v", ci.Desc, res, par)
		}
	})
}

// FuzzSolveTotalDelay checks the Theorem 5.1 pipeline: LP-bound sandwich,
// factor-2 capacity bound, and — when the instance is small enough and
// uniform-rate — the exact-oracle comparison.
func FuzzSolveTotalDelay(f *testing.F) {
	f.Add(int64(2))
	f.Add(int64(55))
	f.Add(int64(190))
	f.Fuzz(func(t *testing.T, seed int64) {
		ci := Gen(seed)
		ins := ci.Instance
		if err := AuditInstance(ins); err != nil {
			t.Fatalf("instance [%s]: %v", ci.Desc, err)
		}
		res, err := placement.SolveTotalDelay(ins)
		if err != nil {
			t.Fatalf("solve [%s]: %v", ci.Desc, err)
		}
		if err := AuditTotalDelay(ins, res); err != nil {
			t.Fatalf("audit [%s]: %v", ci.Desc, err)
		}
		if err := AuditAssignmentFlow(ins); err != nil {
			t.Fatalf("flow [%s]: %v", ci.Desc, err)
		}
		if ins.Sys.Universe() <= 6 && ins.M.N() <= 6 && ins.Rates == nil {
			_, exactVal, err := exact.SolveTotalDelay(ins)
			if err != nil {
				t.Fatalf("exact [%s]: %v", ci.Desc, err)
			}
			if err := AuditTotalDelayAgainstExact(res, exactVal); err != nil {
				t.Fatalf("vs exact [%s]: %v", ci.Desc, err)
			}
		}
	})
}

// FuzzLPvsExact pits the SSQPP LP relaxation against the branch-and-bound
// oracle on tiny instances: Z* ≤ Δ_{f*}(v0) must hold for every source, and
// the rounded solution must stay within α/(α-1) of the optimum.
func FuzzLPvsExact(f *testing.F) {
	f.Add(int64(3), int64(0))
	f.Add(int64(29), int64(2))
	f.Add(int64(111), int64(5))
	f.Fuzz(func(t *testing.T, seed, v0Sel int64) {
		ci := GenTiny(seed)
		ins := ci.Instance
		if err := AuditInstance(ins); err != nil {
			t.Fatalf("instance [%s]: %v", ci.Desc, err)
		}
		v0 := pick(v0Sel, ins.M.N())
		lpBound, err := placement.SSQPPLowerBound(ins, v0)
		if err != nil {
			t.Fatalf("lp [%s]: %v", ci.Desc, err)
		}
		exactPl, exactVal, err := exact.SolveSSQPP(ins, v0)
		if err != nil {
			t.Fatalf("exact [%s]: %v", ci.Desc, err)
		}
		if err := AuditPlacement(ins, exactPl, 1); err != nil {
			t.Fatalf("exact placement [%s]: %v", ci.Desc, err)
		}
		if !leq(lpBound, exactVal) {
			t.Fatalf("lp bound %v exceeds exact optimum %v [%s] v0=%d", lpBound, exactVal, ci.Desc, v0)
		}
		for _, alpha := range sweepAlphas {
			res, err := placement.SolveSSQPP(ins, v0, alpha)
			if err != nil {
				t.Fatalf("solve α=%v [%s]: %v", alpha, ci.Desc, err)
			}
			if err := AuditSSQPP(ins, res); err != nil {
				t.Fatalf("audit α=%v [%s]: %v", alpha, ci.Desc, err)
			}
			if err := AuditSSQPPAgainstExact(res, exactVal); err != nil {
				t.Fatalf("vs exact α=%v [%s]: %v", alpha, ci.Desc, err)
			}
		}
	})
}

// FuzzRunWithFailures drives the failure-injection simulator with fuzzed
// knobs (failure probability, retry budget, penalty, mode, run length and,
// from bits 32 up, a worker count in 2..5) packed into one int64, auditing
// the trace timing and stat identities. The sharded run must reproduce the
// single-worker run bit for bit, and the failure-free corner must reproduce
// netsim.Run exactly, trace for trace.
func FuzzRunWithFailures(f *testing.F) {
	f.Add(int64(4), int64(0))            // failure-free: differential vs Run
	f.Add(int64(9), int64(207360))       // sequential, p≈0.5, 2 retries, penalty 0.5
	f.Add(int64(151), int64(18431))      // parallel, certain failure, 1 retry: aborts
	f.Add(int64(9), int64(3<<32|207360)) // the retries case over 5 workers
	f.Fuzz(func(t *testing.T, seed, knobs int64) {
		ci := Gen(seed)
		ins := ci.Instance
		n := ins.M.N()
		pl := ci.Planted
		cfg := netsim.FailureConfig{
			Instance:          ins,
			Placement:         pl,
			Mode:              netsim.Mode(pick(knobs>>16, 2)),
			NodeFailureProb:   float64(uint64(knobs)&0x3ff) / 0x3ff,
			MaxRetries:        pick(knobs>>10, 4),
			RetryPenalty:      float64(uint64(knobs>>12)&0xf) / 4,
			AccessesPerClient: 1 + pick(knobs>>17, 4),
			Seed:              seed,
			Recorder:          netsim.NewRecorder(0, 1, 0),
		}
		stats, err := netsim.RunWithFailures(cfg)
		if err != nil {
			t.Fatalf("run [%s]: %v", ci.Desc, err)
		}
		if err := AuditFailureStats(stats, n, cfg.AccessesPerClient, cfg.MaxRetries); err != nil {
			t.Fatalf("stats [%s]: %v", ci.Desc, err)
		}
		if err := AuditTraces(cfg.Recorder.Traces()); err != nil {
			t.Fatalf("traces [%s]: %v", ci.Desc, err)
		}
		// Worker invariance: the same run over 2..5 shards is identical.
		sharded := cfg
		sharded.Workers = 2 + pick(knobs>>32, 4)
		sharded.Recorder = netsim.NewRecorder(0, 1, 0)
		sstats, err := netsim.RunWithFailures(sharded)
		if err != nil {
			t.Fatalf("sharded run [%s] workers=%d: %v", ci.Desc, sharded.Workers, err)
		}
		if !reflect.DeepEqual(sstats, stats) {
			t.Fatalf("workers=%d stats %+v, single worker %+v [%s]", sharded.Workers, sstats, stats, ci.Desc)
		}
		if st, ft := sharded.Recorder.Traces(), cfg.Recorder.Traces(); !reflect.DeepEqual(st, ft) {
			t.Fatalf("workers=%d traces differ from the single-worker run (%d vs %d) [%s]", sharded.Workers, len(st), len(ft), ci.Desc)
		}
		if cfg.NodeFailureProb != 0 || cfg.MaxRetries != 0 {
			return
		}
		// Failure-free, no retries: the run must be indistinguishable from
		// netsim.Run on the same seed.
		plainRec := netsim.NewRecorder(0, 1, 0)
		plain, err := netsim.Run(netsim.Config{
			Instance: ins, Placement: pl, Mode: cfg.Mode,
			AccessesPerClient: cfg.AccessesPerClient, Seed: seed, Recorder: plainRec,
		})
		if err != nil {
			t.Fatalf("plain run [%s]: %v", ci.Desc, err)
		}
		if got, want := stats.AvgLatency, plain.AvgLatency; got != want {
			t.Fatalf("failure-free avg latency %v, Run reports %v [%s]", got, want, ci.Desc)
		}
		ft, pt := cfg.Recorder.Traces(), plainRec.Traces()
		if len(ft) != len(pt) {
			t.Fatalf("failure-free run traced %d accesses, Run traced %d [%s]", len(ft), len(pt), ci.Desc)
		}
		for i := range ft {
			ft[i].ID, pt[i].ID = 0, 0
			ft[i].Run, pt[i].Run = 0, 0
			if !reflect.DeepEqual(ft[i], pt[i]) {
				t.Fatalf("failure-free trace %d diverges [%s]:\n  failures %+v\n  run      %+v", i, ci.Desc, ft[i], pt[i])
			}
		}
	})
}

// FuzzTreeDPvsLP pits the exact subset DP (the placement fast path) against
// both references on tiny instances: its optimum must equal the
// branch-and-bound optimum, dominate the LP relaxation's lower bound, and
// its result certificate must pass every SSQPP audit — including the
// against-exact audit, which with LPBound = OPT pins the DP's claimed bound
// to the true optimum.
func FuzzTreeDPvsLP(f *testing.F) {
	f.Add(int64(7), int64(0))
	f.Add(int64(41), int64(2))
	f.Add(int64(133), int64(4))
	f.Fuzz(func(t *testing.T, seed, v0Sel int64) {
		ci := GenTiny(seed)
		ins := ci.Instance
		if err := AuditInstance(ins); err != nil {
			t.Fatalf("instance [%s]: %v", ci.Desc, err)
		}
		v0 := pick(v0Sel, ins.M.N())
		res, err := placement.SolveSSQPPExact(ins, v0, 2)
		if err != nil {
			t.Fatalf("dp [%s] v0=%d: %v", ci.Desc, v0, err)
		}
		if err := AuditSSQPP(ins, res); err != nil {
			t.Fatalf("dp audit [%s] v0=%d: %v", ci.Desc, v0, err)
		}
		if err := AuditPlacement(ins, res.Placement, 1); err != nil {
			t.Fatalf("dp placement [%s] v0=%d: %v", ci.Desc, v0, err)
		}
		_, exactVal, err := exact.SolveSSQPP(ins, v0)
		if err != nil {
			t.Fatalf("exact [%s] v0=%d: %v", ci.Desc, v0, err)
		}
		if !approxEq(res.Delay, exactVal) {
			t.Fatalf("dp optimum %v, branch-and-bound optimum %v [%s] v0=%d", res.Delay, exactVal, ci.Desc, v0)
		}
		if err := AuditSSQPPAgainstExact(res, exactVal); err != nil {
			t.Fatalf("dp vs exact [%s] v0=%d: %v", ci.Desc, v0, err)
		}
		lpBound, err := placement.SSQPPLowerBound(ins, v0)
		if err != nil {
			t.Fatalf("lp [%s] v0=%d: %v", ci.Desc, v0, err)
		}
		if !leq(lpBound, res.Delay) {
			t.Fatalf("lp bound %v exceeds dp optimum %v [%s] v0=%d", lpBound, res.Delay, ci.Desc, v0)
		}
	})
}
