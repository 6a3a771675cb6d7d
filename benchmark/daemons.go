package main

import (
	"fmt"

	"quorumplace/internal/daemon"
	"quorumplace/internal/placement"
)

// This file holds what the two daemon workloads (closed-loop and
// long-uptime) share: the per-tick checks and the tick bookkeeping.

// tickCheck is the per-tick capacity rule: a re-plan may not leave any node
// above max(cap_v + p_max, its pre-tick load). It holds for one
// Shmoys–Tardos rounding from a capacity-respecting start; a breach means
// overshoots compounded across ticks.
func tickCheck(ins *placement.Instance, pre, post []float64) error {
	pMax := 0.0
	for u := 0; u < ins.Sys.Universe(); u++ {
		if l := ins.Load(u); l > pMax {
			pMax = l
		}
	}
	for v, l := range post {
		limit := ins.Cap[v] + pMax
		if pre[v] > limit {
			limit = pre[v]
		}
		if l > limit*(1+1e-9)+1e-12 {
			return fmt.Errorf("node %d: load %.6g after the tick exceeds max(cap+p_max, pre-tick load) = %.6g", v, l, limit)
		}
	}
	return nil
}

// tickStats accumulates what every tick of a daemon workload reports.
type tickStats struct {
	waits    []float64 // untraced tick durations
	opTimes  []float64 // untraced op durations
	untraced []float64 // traced runs: the untraced replay of each op
	// The fixed set's ticks only:
	ratios  []float64 // AvgDelay / the initial placement's delay under the same demand
	factors []float64 // max load/cap after the tick
	delays  []float64 // TickRecord.AvgDelay

	replans, warm, moves int

	// Traced runs: drift-probe and tick time in the first and last tenth
	// of each daemon lifetime.
	probeFirst, tickFirst, probeLast, tickLast float64
	nFirst, nLast                              int
}

// tick records one tick and runs the per-tick capacity check. post are the
// node loads after the tick; the instance carries the tick's live rates.
// Only fixed-set ticks feed the quality metrics.
func (s *tickStats) tick(fixed bool, ins *placement.Instance, initial placement.Placement, rec daemon.TickRecord, pre, post []float64) error {
	if rec.Shard >= 0 {
		s.replans++
		if rec.Warm {
			s.warm++
		}
	}
	s.moves += len(rec.Moves)
	if fixed {
		s.delays = append(s.delays, rec.AvgDelay)
		s.ratios = append(s.ratios, rec.AvgDelay/ins.AvgTotalDelay(initial))
		s.factors = append(s.factors, loadFactor(ins, post))
	}
	return tickCheck(ins, pre, post)
}

// driftProbe calls Daemon.Drift twice, each in a heat.drift_probe span,
// standing for the two heat folds the next Tick does (see setLayers), and
// returns the time both took.
func driftProbe(d *daemon.Daemon, tr *tracer) (float64, error) {
	total := 0.0
	for i := 0; i < 2; i++ {
		t, err := tr.timed("heat.drift_probe", func() error {
			_, err := d.Drift()
			return err
		})
		total += t
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// position adds a traced op's drift-probe and tick time to the first or
// last tenth of a lifetime of the given length.
func (s *tickStats) position(k, lifetime int, probe, tick float64) {
	tenth := lifetime / 10
	if tenth < 1 {
		tenth = 1
	}
	if k < tenth {
		s.probeFirst += probe
		s.tickFirst += tick
		s.nFirst++
	}
	if k >= lifetime-tenth {
		s.probeLast += probe
		s.tickLast += tick
		s.nLast++
	}
}

// setEndToEnd reports the daemon workloads' end-to-end metrics.
func (s *tickStats) setEndToEnd(r *result, setups, heaps []float64) {
	setCommon(r, setups, s.waits, "Daemon.Tick latency", heaps, "mean live heap a fixed-set daemon holds at the end of its lifetime")
	r.set("delay_ratio", mean(s.ratios), len(s.ratios), "fixed set: mean TickRecord.AvgDelay / the initial placement's delay under the same demand")
	r.set("load_factor_max", mean(s.factors), len(s.factors), "fixed set: mean over ticks of max load/cap")
	r.note("pred_delay = %.6g (n=%d): fixed set: mean TickRecord.AvgDelay", mean(s.delays), len(s.delays))
	r.note("tick_p50_us = %.4f tick_p90_us = %.4f (n=%d)", 1e6*quantile(s.waits, 0.5), 1e6*quantile(s.waits, 0.9), len(s.waits))
}

// setLayers reports the per-layer metrics the daemon workloads share. The
// op root is root; spans maps each of the workload's own share metrics to
// the span it measures. Tick folds the heat sketch twice, once for the
// drift estimate and once for the live rates, both the same
// heat.Sketch.ClientRates fold. Daemon.Drift, which is that fold plus a
// cheap distance, is called twice just before the tick (the
// heat.drift_probe spans) and stands for both folds, so the tick's own
// re-plan work is its daemon.tick time minus the probes. The probes are
// extra work only the traced run does, so op time and the shares leave
// them out.
func (s *tickStats) setLayers(r *result, tr *tracer, tap *counterTap, root string, spans map[string]string) (self map[string]float64, ops int, err error) {
	if err := tr.checkNesting(); err != nil {
		return nil, 0, err
	}
	ops, self = tr.layerTimes(root)
	probe := self["heat.drift_probe"]
	layers := map[string]float64{
		"heat.drift_share":    probe,
		"daemon.replan_share": self["daemon.tick"] - probe,
	}
	for metric, span := range spans {
		layers[metric] = self[span]
	}
	if err := setShares(r, tr.opTimes(root, "heat.drift_probe"), s.untraced, layers); err != nil {
		return nil, 0, err
	}
	r.set("heat.drift_first_share", s.probeFirst/s.tickFirst, s.nFirst, "drift-probe time / tick time, first tenth of each lifetime")
	r.set("heat.drift_last_share", s.probeLast/s.tickLast, s.nLast, "drift-probe time / tick time, last tenth of each lifetime")
	r.set("daemon.warm_share", ratio(float64(s.warm), float64(s.replans)), s.replans, "warm re-plans / re-plans")
	r.set("daemon.moves_per_tick", float64(s.moves)/float64(ops), ops, "element moves per tick")
	tap.setLPFlow(r, ops, "tick")
	absent(r, "lp.ssqpp_share", "placement.round_share")
	per := func(name string, t float64) {
		r.note("layer %-22s %10.4f us per tick (n=%d)", name, t/float64(ops)*1e6, ops)
	}
	per("heat.drift_us", self["heat.drift_probe"])
	per("daemon.replan_us", self["daemon.tick"]-self["heat.drift_probe"])
	per("daemon.tick_us", self["daemon.tick"])
	per("unattributed_us", self[root])
	r.note("layer heat.drift_us first tenth %10.4f us per tick (n=%d), last tenth %10.4f us per tick (n=%d)",
		1e6*s.probeFirst/float64(s.nFirst), s.nFirst, 1e6*s.probeLast/float64(s.nLast), s.nLast)
	return self, ops, nil
}
