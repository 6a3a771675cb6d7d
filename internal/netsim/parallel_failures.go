package netsim

import (
	"sort"

	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
)

// Sharded engine for RunWithFailures. Crash states are resampled per
// access from the issuing client's private stream, so every shard's draws
// are a pure function of its own clients' access order and the outcome is
// invariant under the partition. Like Run, clients never interact, so the
// shards run barrier-free.

// failWorker is the per-shard state of one failure-simulator worker.
type failWorker struct {
	cfg         *FailureConfig
	id          int
	lo, hi      int
	counts      []int
	cdf         []float64
	acc         float64
	rec         *Recorder
	runID       int
	slo         bool
	sampleEvery int
	traceSeed   uint64
	ht          *heat.Sketch
	sh          *obs.Shard
	lat         *obs.LogHist // the shard's access-latency histogram, nil when off

	q         eventQueue
	streams   []prng
	alive     []bool
	accesses  int
	succeeded int
	failed    int
	retries   int64
	noLive    int
	latBuf    []latRec // successful accesses, canonical order
	traces    []keyedTrace
	accNodes  []int
}

func (w *failWorker) run() {
	cfg := w.cfg
	ins := cfg.Instance
	nQ := ins.Sys.NumQuorums()
	allAlive := cfg.NodeFailureProb == 0
	if allAlive {
		for i := range w.alive {
			w.alive[i] = true
		}
	}
	for i := range w.streams {
		w.streams[i] = newPRNG(cfg.Seed, streamAccess, w.lo+i)
	}
	for v := w.lo; v < w.hi; v++ {
		if w.counts != nil && w.counts[v] == 0 {
			continue
		}
		w.q.push(event{at: 0, client: v, access: 0})
	}
	collectNodes := w.slo || w.ht != nil
	for len(w.q) > 0 {
		e := w.q.pop()
		v := e.client
		st := &w.streams[v-w.lo]
		row := ins.M.Row(v)
		// Crash state for this access epoch, drawn from the client stream:
		// the access's view of the world depends only on (seed, client,
		// access), never on how accesses interleave globally.
		if !allAlive {
			for i := range w.alive {
				w.alive[i] = st.Float64() >= cfg.NodeFailureProb
			}
		}
		if !anyQuorumAlive(ins, cfg.Placement, w.alive) {
			w.noLive++
		}
		w.accesses++
		var tr *AccessTrace
		if w.rec != nil && shouldTraceDet(w.traceSeed, v, e.access, w.sampleEvery) {
			tr = &AccessTrace{Run: w.runID, Client: v, Mode: cfg.Mode, Start: e.at}
		}
		penalty := 0.0
		elapsed := 0.0
		success := false
		var accRetries int64
		w.accNodes = w.accNodes[:0]
		for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
			qi := sort.SearchFloat64s(w.cdf, st.Float64()*w.acc)
			if qi >= nQ {
				qi = nQ - 1
			}
			attemptStart := e.at + penalty
			attemptProbes := 0
			if tr != nil {
				attemptProbes = len(tr.Probes)
			}
			ok := true
			var latency float64
			for _, u := range ins.Sys.Quorum(qi) {
				node := cfg.Placement.Node(u)
				if collectNodes {
					w.accNodes = append(w.accNodes, node)
				}
				if !w.alive[node] {
					if tr != nil {
						dispatch := attemptStart
						if cfg.Mode == Sequential {
							dispatch += latency
						}
						tr.Probes = append(tr.Probes, ProbeSpan{
							Member: u, Node: node, Dispatch: dispatch,
							Complete: dispatch, Failed: true,
						})
					}
					ok = false
					break
				}
				d := row[node]
				if tr != nil {
					dispatch := attemptStart
					if cfg.Mode == Sequential {
						dispatch += latency
					}
					tr.Probes = append(tr.Probes, ProbeSpan{
						Member: u, Node: node,
						Dispatch: dispatch, NetDelay: d, Complete: dispatch + d,
					})
				}
				if cfg.Mode == Parallel {
					if d > latency {
						latency = d
					}
				} else {
					latency += d
				}
			}
			if ok {
				w.succeeded++
				success = true
				elapsed = latency + penalty
				w.latBuf = append(w.latBuf, latRec{at: e.at, lat: elapsed, client: int32(v)})
				if tr != nil {
					tr.Quorum = qi
					tr.Attempts = attempt
					tr.Latency = elapsed
					tr.End = tr.Start + tr.Latency
					markStragglerIn(cfg.Mode, tr.Probes[attemptProbes:])
					w.traces = append(w.traces, keyedTrace{at: e.at, client: v, access: e.access, tr: *tr})
				}
				break
			}
			penalty += cfg.RetryPenalty
			if attempt < cfg.MaxRetries {
				w.retries++
				accRetries++
			}
		}
		if !success {
			w.failed++
			elapsed = penalty
			if tr != nil {
				tr.Attempts = cfg.MaxRetries + 1
				tr.Aborted = true
				tr.Latency = penalty
				tr.End = tr.Start + penalty
				w.traces = append(w.traces, keyedTrace{at: e.at, client: v, access: e.access, tr: *tr})
			}
		}
		if success && w.lat != nil {
			w.lat.Observe(elapsed)
		}
		if w.slo {
			w.rec.sloAccess(w.runID, e.at+elapsed, elapsed, accRetries, !success, w.accNodes)
		}
		if w.ht != nil {
			w.ht.Observe(e.at, v, w.accNodes)
		}
		limit := cfg.AccessesPerClient
		if w.counts != nil {
			limit = w.counts[v]
		}
		if e.access+1 < limit {
			w.q.push(event{at: e.at + elapsed, client: v, access: e.access + 1})
		}
	}
	w.sh.Count("netsim.events", int64(w.accesses))
	w.sh.Count("netsim.retries", w.retries)
}

// runFailuresSharded is the engine behind RunWithFailures.
func runFailuresSharded(cfg FailureConfig) (*FailureStats, error) {
	ins := cfg.Instance
	n := ins.M.N()
	var counts []int
	if ins.Rates != nil {
		counts = clientAccessCounts(ins.Rates, n, cfg.AccessesPerClient)
	}
	cdf, acc := quorumCDF(ins)
	W := clampWorkers(cfg.Workers, n)

	sp := obs.Start("netsim.failures")
	defer sp.End()

	rec := recorderFor(cfg.Recorder)
	runID := 0
	if rec != nil {
		runID = rec.beginRun()
	}
	slo := rec != nil && rec.sloEnabled()
	if slo {
		rec.sloSetNodes(runID, n)
	}
	sampleEvery := 1
	if rec != nil {
		sampleEvery = rec.sampleEveryN()
	}
	ht := heatFor(cfg.Heat)
	shards := heatShards(ht, W)
	traceSeed := traceSeedFor(cfg.Seed)

	ws := make([]*failWorker, W)
	for i := 0; i < W; i++ {
		lo, hi := i*n/W, (i+1)*n/W
		w := &failWorker{
			cfg: &cfg, id: i, lo: lo, hi: hi,
			counts: counts, cdf: cdf, acc: acc,
			rec: rec, runID: runID, slo: slo,
			sampleEvery: sampleEvery, traceSeed: traceSeed,
			streams: make([]prng, hi-lo),
			alive:   make([]bool, n),
			latBuf:  make([]latRec, 0, ownedAccesses(counts, cfg.AccessesPerClient, lo, hi)),
		}
		w.sh = obs.NewShard(sp)
		w.lat = w.sh.Hist("netsim.access_latency")
		if ht != nil {
			w.ht = shards[i]
		}
		if slo || w.ht != nil {
			w.accNodes = make([]int, 0, 16)
		}
		ws[i] = w
	}
	runWorkers(W, func(i int) { ws[i].run() })

	stats := &FailureStats{}
	latBufs := make([][]latRec, W)
	traceBufs := make([][]keyedTrace, W)
	var noLive int
	for i, w := range ws {
		stats.Accesses += w.accesses
		stats.Succeeded += w.succeeded
		stats.FailedOutright += w.failed
		stats.Retries += int(w.retries)
		noLive += w.noLive
		latBufs[i] = w.latBuf
		traceBufs[i] = w.traces
		w.sh.Merge()
	}
	// Fold the successful-latency sum over the canonically merged stream so
	// the float bits are independent of the partition.
	latencySum := mergeLatRecs(latBufs, nil)
	stats.SuccessRate = float64(stats.Succeeded) / float64(stats.Accesses)
	if stats.Succeeded > 0 {
		stats.AvgLatency = latencySum / float64(stats.Succeeded)
	}
	stats.EmpiricalUnavail = float64(noLive) / float64(stats.Accesses)
	if rec != nil {
		traced := mergeTraces(rec, traceBufs)
		obs.Count("netsim.traced_accesses", traced)
	}
	if err := mergeHeatShards(ht, shards); err != nil {
		return nil, err
	}
	return stats, nil
}
