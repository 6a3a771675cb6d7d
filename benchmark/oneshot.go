package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"quorumplace/internal/agg"
	"quorumplace/internal/check"
	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// The oneshot workload is a batch of cold Theorem 1.2 solves. Each op is
// the whole product path: graph.BuildMetric → placement.NewInstance →
// agg.Demand.AddClients/ApplyTo → placement.SolveQPP(α=2) →
// placement.SolveTotalDelay. The cold dense-simplex LP does nearly all the
// work; heat, daemon and netsim are never called, so this workload is the
// bypass case for warm-path and uptime changes.

const oneshotAlpha = 2

type oneshotScale struct {
	sizes   []int // network sizes; every round solves each size once per family and system
	clients int   // client population per instance
	fixed   int   // rounds every run completes; the quality metrics cover these
}

var (
	oneshotFull = oneshotScale{sizes: []int{10, 11, 12, 13, 14}, clients: 20000, fixed: 6}
	oneshotTiny = oneshotScale{sizes: []int{6}, clients: 200, fixed: 1}
)

// oneshotInput is one generated instance: everything the op needs, made
// from the seed before the op is timed.
type oneshotInput struct {
	desc    string
	g       *graph.Graph
	sys     *quorum.System
	strat   quorum.Strategy
	caps    []float64
	clients []agg.Client
}

// oneshotSystems are the quorum systems every round covers.
func oneshotSystems() []*quorum.System {
	return []*quorum.System{quorum.Grid(3), quorum.FPP(2), quorum.Majority(5, 3)}
}

// oneshotBatch generates round r's instances: one per (graph family,
// size, system) stratum, so every round has the same mix, in a seeded
// order.
func oneshotBatch(seed int64, round int, sc oneshotScale) ([]oneshotInput, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 1, int64(round))))
	var batch []oneshotInput
	for _, family := range []string{"geometric", "erdos-renyi"} {
		for _, n := range sc.sizes {
			for _, sys := range oneshotSystems() {
				in, err := oneshotInstance(rng, family, n, sys, sc.clients)
				if err != nil {
					return nil, err
				}
				batch = append(batch, in)
			}
		}
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return batch, nil
}

func oneshotInstance(rng *rand.Rand, family string, n int, sys *quorum.System, clients int) (oneshotInput, error) {
	var g *graph.Graph
	if family == "geometric" {
		g = graph.RandomGeometric(n, 0.4, rng)
	} else {
		g = graph.ErdosRenyiConnected(n, 0.3, 1, 4, rng)
	}
	strat := quorum.Uniform(sys.NumQuorums())
	loads, err := sys.Loads(strat)
	if err != nil {
		return oneshotInput{}, err
	}
	// Capacities as in the evaluation suite: each element's load lands on
	// a random node, plus up to 0.2 slack everywhere, so a
	// capacity-respecting placement always exists.
	caps := make([]float64, n)
	for _, l := range loads {
		caps[rng.Intn(n)] += l
	}
	for v := range caps {
		caps[v] += 0.2 * rng.Float64()
	}
	// Clients of unit weight, spread over nodes by a skewed popularity.
	cdf := make([]float64, n)
	acc := 0.0
	for v := range cdf {
		acc += 0.2 + rng.ExpFloat64()
		cdf[v] = acc
	}
	cs := make([]agg.Client, clients)
	for i := range cs {
		v := sort.SearchFloat64s(cdf, rng.Float64()*acc)
		if v >= n {
			v = n - 1
		}
		cs[i] = agg.Client{Node: v, Weight: 1}
	}
	return oneshotInput{
		desc: fmt.Sprintf("%s n=%d %s", family, n, sys.Name()),
		g:    g, sys: sys, strat: strat, caps: caps, clients: cs,
	}, nil
}

type oneshotOut struct {
	ins *placement.Instance
	qpp *placement.QPPResult
	td  *placement.TotalDelayResult
}

// solveOne is the timed op. With a tracer it records one span per layer
// under an "oneshot.solve" root.
func solveOne(in *oneshotInput, tr *tracer) (out oneshotOut, err error) {
	if tr != nil {
		tr.begin("oneshot.solve")
		defer tr.end()
	}
	var m *graph.Metric
	if err = tr.do("graph.build", func() (err error) {
		m, err = graph.BuildMetric(in.g)
		return err
	}); err != nil {
		return out, err
	}
	if err = tr.do("placement.instance", func() (err error) {
		out.ins, err = placement.NewInstance(m, in.caps, in.sys, in.strat)
		return err
	}); err != nil {
		return out, err
	}
	if err = tr.do("agg.fold", func() error {
		d := agg.NewDemand(m.N())
		if err := d.AddClients(in.clients); err != nil {
			return err
		}
		return d.ApplyTo(out.ins)
	}); err != nil {
		return out, err
	}
	if err = tr.do("placement.qpp", func() (err error) {
		out.qpp, err = placement.SolveQPP(out.ins, oneshotAlpha)
		return err
	}); err != nil {
		return out, err
	}
	err = tr.do("placement.td", func() (err error) {
		out.td, err = placement.SolveTotalDelay(out.ins)
		return err
	})
	return out, err
}

// checkOneshot audits a solve against Theorems 1.2 and 5.1.
func checkOneshot(out oneshotOut) error {
	if err := check.AuditQPP(out.ins, out.qpp); err != nil {
		return err
	}
	return check.AuditTotalDelay(out.ins, out.td)
}

// loadFactor is max over nodes of load/cap for a placement.
func loadFactor(ins *placement.Instance, loads []float64) float64 {
	worst := 0.0
	for v, l := range loads {
		if l > 0 && l/ins.Cap[v] > worst {
			worst = l / ins.Cap[v]
		}
	}
	return worst
}

// sourcesOp splits one solve's SSQPP work into the LP and the rounding: for
// every source v0 it times SolveSSQPP and, separately, SSQPPLowerBound,
// which solves the same LP alone. It is its own op, outside the solve.
func sourcesOp(ins *placement.Instance, tr *tracer) error {
	tr.begin("oneshot.sources")
	defer tr.end()
	for v0 := 0; v0 < ins.M.N(); v0++ {
		if err := tr.do("placement.ssqpp", func() error {
			_, err := placement.SolveSSQPP(ins, v0, oneshotAlpha)
			return err
		}); err != nil {
			return err
		}
		if err := tr.do("lp.ssqpp", func() error {
			_, err := placement.SSQPPLowerBound(ins, v0)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func runOneshot(o options) (*result, error) {
	sc := oneshotFull
	if o.tiny {
		sc = oneshotTiny
	}
	r := newResult()
	var setups []float64
	var tr *tracer
	var tap *counterTap
	if o.trace {
		tr, tap = newTracer(), newCounterTap()
	}
	var waits, ratios, factors, heaps []float64
	var untraced []float64 // untraced replay times of the traced solves
	clk := newClock(o.seconds)
	for round := 0; round < sc.fixed || clk.more(); round++ {
		fixed := round < sc.fixed
		batch, err := setupRun(&setups, func() ([]oneshotInput, error) { return oneshotBatch(o.seed, round, sc) })
		if err != nil {
			return nil, err
		}
		outs := make([]oneshotOut, 0, len(batch))
		for i := range batch {
			in := &batch[i]
			r.op(fixed)
			var out oneshotOut
			if !o.trace {
				t0 := time.Now()
				out, err = solveOne(in, nil)
				if err == nil {
					waits = append(waits, since(t0))
				}
			} else {
				out, err = tracedSolve(in, i, tr, tap, &untraced)
			}
			if err != nil {
				r.fail(fixed, "%s: %v", in.desc, err)
				continue
			}
			if fixed {
				ratios = append(ratios, out.qpp.AvgMaxDelay/out.qpp.RelayBound)
				factors = append(factors, loadFactor(out.ins, out.ins.NodeLoads(out.qpp.Placement)))
			}
			outs = append(outs, out)
			if err := checkOneshot(out); err != nil {
				r.fail(fixed, "%s: %v", in.desc, err)
			}
		}
		if fixed {
			heaps = append(heaps, retainedMB(func() { outs = nil }))
		}
	}
	if len(ratios) == 0 {
		return nil, fmt.Errorf("every solve of the fixed set returned an error")
	}
	if o.trace {
		return r, oneshotLayers(r, o, tr, tap, untraced)
	}
	setCommon(r, setups, waits, "cold solve latency", heaps, "mean live heap a fixed-set round's solved instances hold")
	r.set("work_per_s", float64(len(waits))/sum(waits), len(waits), "solves per second of solve time")
	r.set("delay_ratio", mean(ratios), len(ratios), "fixed set: mean AvgMaxDelay / RelayBound of the QPP placement")
	r.set("load_factor_max", mean(factors), len(factors), "fixed set: mean over solves of max load/cap (bound α+1 = 3)")
	return r, nil
}

// tracedSolve solves one instance traced and untraced, checks that both
// give the same placements, and then splits the traced instance's SSQPP
// work by layer.
func tracedSolve(in *oneshotInput, k int, tr *tracer, tap *counterTap, untraced *[]float64) (oneshotOut, error) {
	traced, plain, err := pair(k, tap,
		func() (oneshotOut, error) { return solveOne(in, tr) },
		func() (oneshotOut, error) {
			t0 := time.Now()
			out, err := solveOne(in, nil)
			*untraced = append(*untraced, since(t0))
			return out, err
		})
	if err != nil {
		return traced, err
	}
	if !reflect.DeepEqual(plain.qpp, traced.qpp) || !reflect.DeepEqual(plain.td, traced.td) {
		return traced, fmt.Errorf("traced and untraced solves differ")
	}
	return traced, sourcesOp(traced.ins, tr)
}

func oneshotLayers(r *result, o options, tr *tracer, tap *counterTap, untraced []float64) error {
	if err := tr.checkNesting(); err != nil {
		return err
	}
	ops, self := tr.layerTimes("oneshot.solve")
	if err := setShares(r, tr.opTimes("oneshot.solve", ""), untraced, map[string]float64{
		"graph.build_share":        self["graph.build"],
		"placement.instance_share": self["placement.instance"],
		"agg.fold_share":           self["agg.fold"],
		"placement.qpp_share":      self["placement.qpp"],
		"placement.td_share":       self["placement.td"],
	}); err != nil {
		return err
	}
	_, src := tr.layerTimes("oneshot.sources")
	lpShare := src["lp.ssqpp"] / src["placement.ssqpp"]
	r.set("lp.ssqpp_share", lpShare, ops, "Σ over v0 of SSQPPLowerBound / Σ over v0 of SolveSSQPP")
	r.set("placement.round_share", 1-lpShare, ops, "(Σ SolveSSQPP - Σ SSQPPLowerBound) / Σ SolveSSQPP")
	tap.setLPFlow(r, ops, "solve")
	absent(r, "netsim.events_per_s", "heat.drift_first_share", "heat.drift_last_share",
		"daemon.warm_share", "daemon.moves_per_tick")
	per := func(name string, t float64) {
		r.note("layer %-22s %10.4f ms per solve (n=%d)", name, t/float64(ops)*1e3, ops)
	}
	per("graph.build_ms", self["graph.build"])
	per("placement.instance_ms", self["placement.instance"])
	per("agg.fold_ms", self["agg.fold"])
	per("placement.qpp_ms", self["placement.qpp"])
	per("placement.td_ms", self["placement.td"])
	per("lp.ssqpp_ms", src["lp.ssqpp"])
	per("placement.round_ms", src["placement.ssqpp"]-src["lp.ssqpp"])
	per("unattributed_ms", self["oneshot.solve"])
	if o.spans != "" {
		return tr.write(o.spans)
	}
	return nil
}
