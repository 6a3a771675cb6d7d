package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"quorumplace/internal/daemon"
	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/netsim"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// The closed-loop workload is the E21 control loop: the simulator deploys
// the daemon's current placement under the epoch's true demand, the run's
// heat sketch is ingested, and the daemon ticks once. Demand ramps onto
// the remote clients the plan weighted at ε, again and again. Every tick
// re-plans one of K = 3 shards through the warm LP and rounding
// (AlwaysReplan), while the simulator takes most of the wall time. Daemon
// uptime is held to one lifetime of a few hundred epochs; then a fresh
// daemon starts on a freshly drawn instance.

type closedScale struct {
	n     int // path length (network nodes)
	steps int // epochs per daemon lifetime
	apc   int // simulated accesses per client per epoch
	fixed int // lifetimes every run completes; the quality metrics cover these
}

var (
	closedFull = closedScale{n: 24, steps: 240, apc: 400, fixed: 24}
	closedTiny = closedScale{n: 12, steps: 12, apc: 20, fixed: 1}
)

// closedRamp is the repeating share α of demand sent to the remote clients.
var closedRamp = []float64{0, 0, 0.05, 0.2, 0.5, 0.5, 0.5, 0.5, 0.3, 0.1, 0, 0}

// closedHeat uses one epoch per simulator run, as E21 does: netsim's
// virtual clock spans far less than 2^20 per run, and a one-epoch
// half-life makes the drift estimate compare whole-run demand mixes.
var closedHeat = heat.Options{EpochLen: 1 << 20, HalfLife: 1}

// closedLoop is one daemon lifetime's state: instance, plan demand, the
// remote clients the ramp floods, and the daemon.
type closedLoop struct {
	ins     *placement.Instance
	plan    []float64
	hot     []int
	initial placement.Placement
	d       *daemon.Daemon
}

// buildClosed sets up one lifetime from the seed. Two calls with the same
// arguments build bitwise-identical loops.
func buildClosed(seed int64, lifetime int, sc closedScale) (*closedLoop, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 2, int64(lifetime))))
	n := sc.n
	m, err := graph.BuildMetric(graph.Path(n))
	if err != nil {
		return nil, err
	}
	sys := quorum.Grid(3)
	strat := quorum.Uniform(sys.NumQuorums())
	loads, err := sys.Loads(strat)
	if err != nil {
		return nil, err
	}
	caps := make([]float64, n)
	for _, l := range loads {
		caps[rng.Intn(n)] += l
	}
	for v := range caps {
		caps[v] += 0.2 * rng.Float64()
	}
	ins, err := placement.NewInstance(m, caps, sys, strat)
	if err != nil {
		return nil, err
	}
	// The remote clients (largest total distance: the path's ends) get
	// weight ε in the plan, so the initial placement ignores exactly the
	// clients the ramp later floods.
	hot := remoteClients(m, n/8)
	const eps = 0.0005
	plan := make([]float64, n)
	for v := range plan {
		plan[v] = (1 - eps*float64(len(hot))) / float64(n-len(hot))
	}
	for _, v := range hot {
		plan[v] = eps
	}
	if err := ins.SetRates(plan); err != nil {
		return nil, err
	}
	initial, err := placement.BestGreedyPlacement(ins)
	if err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Config{
		Instance:       ins,
		Initial:        initial,
		PlanDemand:     plan,
		Shards:         3,
		Lambda:         0.1,
		DriftThreshold: 0.1,
		Heat:           closedHeat,
		AlwaysReplan:   true,
	})
	if err != nil {
		return nil, err
	}
	return &closedLoop{ins: ins, plan: plan, hot: hot, initial: initial, d: d}, nil
}

// remoteClients returns the k nodes with the largest total distance to
// all others, in index order.
func remoteClients(m *graph.Metric, k int) []int {
	n := m.N()
	if k < 1 {
		k = 1
	}
	total := make([]float64, n)
	idx := make([]int, n)
	for v := 0; v < n; v++ {
		idx[v] = v
		for u := 0; u < n; u++ {
			total[v] += m.D(v, u)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return total[idx[a]] > total[idx[b]] })
	out := append([]int(nil), idx[:k]...)
	sort.Ints(out)
	return out
}

type closedOut struct {
	rec      daemon.TickRecord
	stats    *netsim.Stats
	heatSeen int64 // accesses the run's heat sketch counted
	op, sim  float64
	probe    float64 // traced only
	tick     float64
}

// step is one timed op: simulate an epoch, ingest its heat sketch, tick.
// Traced, it records spans under a "closed.step" root and probes
// Daemon.Drift just before the tick.
func (c *closedLoop) step(simSeed int64, alpha float64, apc int, tr *tracer) (out closedOut, err error) {
	n := c.ins.M.N()
	rates := make([]float64, n)
	for v := range rates {
		rates[v] = (1 - alpha) * c.plan[v]
	}
	for _, v := range c.hot {
		rates[v] += alpha / float64(len(c.hot))
	}
	if err := c.ins.SetRates(rates); err != nil {
		return out, err
	}
	cfg := netsim.Config{
		Instance:          c.ins,
		Placement:         c.d.Placement(),
		Mode:              netsim.Parallel,
		AccessesPerClient: apc,
		Seed:              simSeed,
		Heat:              heat.New(closedHeat),
	}
	t0 := time.Now()
	if tr != nil {
		tr.begin("closed.step")
	}
	out.sim, err = tr.timed("netsim.run", func() (err error) {
		out.stats, err = netsim.Run(cfg)
		return err
	})
	if err == nil {
		err = tr.do("heat.ingest", func() error { return c.d.IngestSketch(cfg.Heat) })
	}
	if err == nil && tr != nil {
		out.probe, err = driftProbe(c.d, tr)
	}
	if err == nil {
		out.tick, err = tr.timed("daemon.tick", func() (err error) {
			out.rec, err = c.d.Tick()
			return err
		})
	}
	if tr != nil {
		tr.end()
	}
	out.op = since(t0)
	out.heatSeen = cfg.Heat.Accesses()
	return out, err
}

func runClosedLoop(o options) (*result, error) {
	sc := closedFull
	if o.tiny {
		sc = closedTiny
	}
	r := newResult()
	var setups []float64
	var ts tickStats
	var tr *tracer
	var tap *counterTap
	if o.trace {
		tr, tap = newTracer(), newCounterTap()
	}
	var heaps []float64
	accesses, simTime := 0.0, 0.0
	want := sc.n * sc.apc
	clk := newClock(o.seconds)
	for lifetime := 0; lifetime < sc.fixed || clk.more(); lifetime++ {
		fixed := lifetime < sc.fixed
		a, err := setupRun(&setups, func() (*closedLoop, error) { return buildClosed(o.seed, lifetime, sc) })
		if err != nil {
			return nil, err
		}
		var b *closedLoop // traced runs replay every step on a second copy, untraced
		if o.trace {
			if b, err = buildClosed(o.seed, lifetime, sc); err != nil {
				return nil, err
			}
		}
		for k := 0; k < sc.steps; k++ {
			r.op(fixed)
			alpha := closedRamp[k%len(closedRamp)]
			simSeed := subSeed(o.seed, 3, int64(lifetime), int64(k))
			pre := a.ins.NodeLoads(a.d.Placement())
			var out closedOut
			var replay error // traced runs: the untraced copy's replay differs
			if !o.trace {
				out, err = a.step(simSeed, alpha, sc.apc, nil)
			} else {
				var plain closedOut
				out, plain, err = pair(k, tap,
					func() (closedOut, error) { return a.step(simSeed, alpha, sc.apc, tr) },
					func() (closedOut, error) { return b.step(simSeed, alpha, sc.apc, nil) })
				ts.untraced = append(ts.untraced, plain.op)
				ts.position(k, sc.steps, out.probe, out.tick)
				if !reflect.DeepEqual(out.rec, plain.rec) || !reflect.DeepEqual(out.stats, plain.stats) {
					replay = fmt.Errorf("the untraced copy did not replay the tick and simulation bitwise")
				}
			}
			if err != nil {
				r.fail(fixed, "lifetime %d step %d: %v", lifetime, k, err)
				continue
			}
			ts.waits = append(ts.waits, out.tick)
			ts.opTimes = append(ts.opTimes, out.op)
			accesses += float64(out.stats.Accesses)
			simTime += out.sim
			breach := ts.tick(fixed, a.ins, a.initial, out.rec, pre, a.ins.NodeLoads(a.d.Placement()))
			if out.stats.Accesses != want || out.heatSeen != int64(want) {
				err = fmt.Errorf("simulated %d accesses, heat sketch saw %d, issued %d", out.stats.Accesses, out.heatSeen, want)
			} else {
				err = replay
			}
			if err != nil {
				r.fail(fixed, "lifetime %d step %d: %v", lifetime, k, err)
			} else if breach != nil {
				r.breach(fixed, "lifetime %d step %d: %v", lifetime, k, breach)
			}
		}
		if fixed {
			heaps = append(heaps, retainedMB(func() { a, b = nil, nil }))
		}
	}
	if len(ts.ratios) == 0 {
		return nil, fmt.Errorf("every step of the fixed set returned an error")
	}
	if o.trace {
		self, ops, err := ts.setLayers(r, tr, tap, "closed.step", map[string]string{
			"netsim.run_share":  "netsim.run",
			"heat.ingest_share": "heat.ingest",
		})
		if err != nil {
			return nil, err
		}
		r.set("netsim.events_per_s", tap.get("netsim.events")/self["netsim.run"], ops, "simulator events per second of netsim.Run self time")
		r.note("layer %-22s %10.4f ms per step (n=%d)", "netsim.run_ms", 1e3*self["netsim.run"]/float64(ops), ops)
		r.note("layer %-22s %10.4f us per step (n=%d)", "heat.ingest_us", 1e6*self["heat.ingest"]/float64(ops), ops)
		if o.spans != "" {
			return r, tr.write(o.spans)
		}
		return r, nil
	}
	ts.setEndToEnd(r, setups, heaps)
	r.set("work_per_s", accesses/simTime, len(ts.opTimes), "simulated accesses per second of netsim.Run time")
	r.note("steps_per_s = %.6g (n=%d): closed-loop steps per second of step time", float64(len(ts.opTimes))/sum(ts.opTimes), len(ts.opTimes))
	return r, nil
}
