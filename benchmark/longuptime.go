package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"quorumplace/internal/daemon"
	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// The long-uptime workload is one daemon run for thousands of epochs. Each
// epoch feeds it synthetic Daemon.Observe calls, two thirds of them from
// one hot client drawn anew each epoch, advances the virtual clock to the
// next epoch, and ticks. heat.Sketch keeps every epoch, so the drift
// fold grows with uptime until it dominates the tick; warm-LP work barely
// moves this workload. Instance, daemon and observations follow the
// capacity-ratchet repro (tight capacities planted around the start
// placement, λ = 0.05, K = 3 shards, a new hot client every epoch), so the
// per-tick capacity check catches the ratchet where it happens.

type longScale struct {
	n          int // network nodes
	majN, majT int // Majority(majN, majT) quorum system
	epochs     int // epochs per daemon lifetime
	perEpoch   int // observations per epoch
	fixed      int // lifetimes every run completes; the quality metrics cover these
}

var (
	longFull = longScale{n: 32, majN: 16, majT: 9, epochs: 3000, perEpoch: 50, fixed: 6}
	longTiny = longScale{n: 10, majN: 5, majT: 3, epochs: 40, perEpoch: 12, fixed: 1}
)

// Daemon settings of the capacity-ratchet repro.
const (
	longShards = 3
	longLambda = 0.05
)

// longDaemon is one lifetime's daemon and the instance it owns.
type longDaemon struct {
	ins     *placement.Instance
	initial placement.Placement
	d       *daemon.Daemon
}

// buildLong sets up one lifetime from the seed: an Erdős–Rényi network and
// a Majority system, with capacities planted as check.Gen plants them. Each
// element goes to a random node; a node's capacity is its planted load
// times 1 to 1.5, plus 0.05 to 0.35 slack, except that three in ten of the
// nodes left empty get none. The planted placement, which respects every
// capacity, is the daemon's start.
func buildLong(seed int64, lifetime int, sc longScale) (*longDaemon, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 4, int64(lifetime))))
	m, err := graph.BuildMetric(graph.ErdosRenyiConnected(sc.n, 0.25, 1, 4, rng))
	if err != nil {
		return nil, err
	}
	sys := quorum.Majority(sc.majN, sc.majT)
	strat := quorum.Uniform(sys.NumQuorums())
	loads, err := sys.Loads(strat)
	if err != nil {
		return nil, err
	}
	f := make([]int, len(loads))
	planted := make([]float64, sc.n)
	for u := range f {
		f[u] = rng.Intn(sc.n)
		planted[f[u]] += loads[u]
	}
	caps := make([]float64, sc.n)
	for v := range caps {
		caps[v] = planted[v] * (1 + 0.5*rng.Float64())
		if planted[v] == 0 && rng.Float64() < 0.3 {
			continue
		}
		caps[v] += 0.05 + 0.3*rng.Float64()
	}
	ins, err := placement.NewInstance(m, caps, sys, strat)
	if err != nil {
		return nil, err
	}
	initial := placement.NewPlacement(f)
	d, err := daemon.New(daemon.Config{
		Instance:     ins,
		Initial:      initial,
		Shards:       longShards,
		Lambda:       longLambda,
		AlwaysReplan: true,
	})
	if err != nil {
		return nil, err
	}
	return &longDaemon{ins: ins, initial: initial, d: d}, nil
}

// observation is one synthetic client access: its virtual time within the
// epoch's unit interval, the client, and the nodes its quorum touches.
type observation struct {
	at     float64
	client int
	nodes  []int
}

// epochObservations draws one epoch's accesses against placement pl.
func epochObservations(rng *rand.Rand, sc longScale, sys *quorum.System, pl placement.Placement, epoch, hot int) []observation {
	obs := make([]observation, sc.perEpoch)
	for i := range obs {
		client := hot
		if i%3 == 0 {
			client = rng.Intn(sc.n)
		}
		q := sys.Quorum(rng.Intn(sys.NumQuorums()))
		nodes := make([]int, len(q))
		for j, u := range q {
			nodes[j] = pl.Node(u)
		}
		obs[i] = observation{at: float64(epoch) + (float64(i)+0.5)/float64(sc.perEpoch), client: client, nodes: nodes}
	}
	return obs
}

type longOut struct {
	rec             daemon.TickRecord
	op, probe, tick float64
}

// epoch is one timed op: the epoch's observations, then a tick. Traced, it
// records spans under a "long.epoch" root and probes Daemon.Drift just
// before the tick.
func (l *longDaemon) epoch(obs []observation, tr *tracer) (out longOut, err error) {
	t0 := time.Now()
	if tr != nil {
		tr.begin("long.epoch")
	}
	_ = tr.do("heat.observe", func() error {
		for _, o := range obs {
			l.d.Observe(o.at, o.client, o.nodes)
		}
		return nil
	})
	if tr != nil {
		out.probe, err = driftProbe(l.d, tr)
	}
	if err == nil {
		out.tick, err = tr.timed("daemon.tick", func() (err error) {
			out.rec, err = l.d.Tick()
			return err
		})
	}
	if tr != nil {
		tr.end()
	}
	out.op = since(t0)
	return out, err
}

func runLongUptime(o options) (*result, error) {
	sc := longFull
	if o.tiny {
		sc = longTiny
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
	clk := newClock(o.seconds)
	for lifetime := 0; lifetime < sc.fixed || clk.more(); lifetime++ {
		fixed := lifetime < sc.fixed
		a, err := setupRun(&setups, func() (*longDaemon, error) { return buildLong(o.seed, lifetime, sc) })
		if err != nil {
			return nil, err
		}
		var b *longDaemon // traced runs replay every epoch on a second copy, untraced
		if o.trace {
			if b, err = buildLong(o.seed, lifetime, sc); err != nil {
				return nil, err
			}
		}
		rng := rand.New(rand.NewSource(subSeed(o.seed, 5, int64(lifetime))))
		for e := 0; e < sc.epochs; e++ {
			r.op(fixed)
			hot := rng.Intn(sc.n)
			pl := a.d.Placement()
			obs := epochObservations(rng, sc, a.ins.Sys, pl, e, hot)
			pre := a.ins.NodeLoads(pl)
			var out longOut
			var replay error // traced runs: the untraced copy's replay differs
			if !o.trace {
				out, err = a.epoch(obs, nil)
			} else {
				var plain longOut
				out, plain, err = pair(e, tap,
					func() (longOut, error) { return a.epoch(obs, tr) },
					func() (longOut, error) { return b.epoch(obs, nil) })
				ts.untraced = append(ts.untraced, plain.op)
				ts.position(e, sc.epochs, out.probe, out.tick)
				if !reflect.DeepEqual(out.rec, plain.rec) {
					replay = fmt.Errorf("the untraced copy did not replay the tick bitwise")
				}
			}
			if err != nil {
				r.fail(fixed, "lifetime %d epoch %d: %v", lifetime, e, err)
				continue
			}
			ts.waits = append(ts.waits, out.tick)
			ts.opTimes = append(ts.opTimes, out.op)
			breach := ts.tick(fixed, a.ins, a.initial, out.rec, pre, a.ins.NodeLoads(a.d.Placement()))
			if replay != nil {
				r.fail(fixed, "lifetime %d epoch %d: %v", lifetime, e, replay)
			} else if breach != nil {
				r.breach(fixed, "lifetime %d epoch %d: %v", lifetime, e, breach)
			}
		}
		if fixed {
			heaps = append(heaps, retainedMB(func() { a, b = nil, nil }))
		}
	}
	if len(ts.ratios) == 0 {
		return nil, fmt.Errorf("every epoch of the fixed set returned an error")
	}
	if o.trace {
		if _, _, err := ts.setLayers(r, tr, tap, "long.epoch", map[string]string{
			"heat.observe_share": "heat.observe",
		}); err != nil {
			return nil, err
		}
		absent(r, "netsim.events_per_s")
		if o.spans != "" {
			return r, tr.write(o.spans)
		}
		return r, nil
	}
	ts.setEndToEnd(r, setups, heaps)
	r.set("work_per_s", float64(len(ts.opTimes))/sum(ts.opTimes), len(ts.opTimes), "epochs (observations + tick) per second of epoch time")
	return r, nil
}
