package netsim

import (
	"sort"

	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
)

// Sharded engine for Run (see parallel.go for the determinism design).
// Clients never interact in the propagation-only simulator — an access
// touches only its own client's timeline plus commutative integer
// aggregates — so the lookahead is unbounded and the shards run
// barrier-free to completion, merging once at the end.

// runWorker is the per-shard state of one propagation-simulator worker.
type runWorker struct {
	cfg         *Config
	id          int
	lo, hi      int // owned client index range
	counts      []int
	cdf         []float64
	acc         float64
	rec         *Recorder
	runID       int
	slo         bool
	sampleEvery int
	traceSeed   uint64
	ht          *heat.Sketch // worker heat shard, nil when heat is off
	sh          *obs.Shard   // worker telemetry shard, nil when telemetry is off
	lat         *obs.LogHist // the shard's access-latency histogram, nil when off

	q          eventQueue
	streams    []prng // one per owned client
	accesses   int
	messages   int64
	events     int64
	maxDepth   int
	clock      float64
	lastAt     float64 // at of the last processed event (nondecreasing)
	nodeHits   []int64
	perClient  []float64 // owned range only
	perClientN []int
	latBuf     []latRec
	traces     []keyedTrace
	ts         *tsState
	tsBuf      []TSample
	accNodes   []int
}

// fillSample populates one time-series boundary with this shard's share of
// the gauges; boundary samples merge additively across shards.
func (w *runWorker) fillSample(at float64, s *TSample) {
	w.ts.done.popTo(at)
	s.InFlight = len(w.ts.done)
	s.Accesses = w.accesses
	s.NodeHits = append([]int64(nil), w.nodeHits...)
}

func (w *runWorker) run() {
	cfg := w.cfg
	ins := cfg.Instance
	nQ := ins.Sys.NumQuorums()
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
		if len(w.q) > w.maxDepth {
			w.maxDepth = len(w.q)
		}
		e := w.q.pop()
		w.events++
		if w.ts != nil {
			w.ts.advance(e.at, w.fillSample)
		}
		v := e.client
		st := &w.streams[v-w.lo]
		qi := sort.SearchFloat64s(w.cdf, st.Float64()*w.acc)
		if qi >= nQ {
			qi = nQ - 1
		}
		var tr *AccessTrace
		if w.rec != nil && shouldTraceDet(w.traceSeed, v, e.access, w.sampleEvery) {
			tr = &AccessTrace{Run: w.runID, Client: v, Quorum: qi, Mode: cfg.Mode, Start: e.at}
			tr.Probes = make([]ProbeSpan, 0, len(ins.Sys.Quorum(qi)))
		}
		row := ins.M.Row(v)
		var latency float64
		w.accNodes = w.accNodes[:0]
		for _, u := range ins.Sys.Quorum(qi) {
			node := cfg.Placement.Node(u)
			d := row[node]
			w.nodeHits[node]++
			w.messages++
			if collectNodes {
				w.accNodes = append(w.accNodes, node)
			}
			if tr != nil {
				dispatch := e.at
				if cfg.Mode == Sequential {
					dispatch += latency
				}
				tr.Probes = append(tr.Probes, ProbeSpan{
					Member: u, Node: node,
					Dispatch: dispatch, NetDelay: d, Complete: dispatch + d,
				})
			}
			switch cfg.Mode {
			case Parallel:
				if d > latency {
					latency = d
				}
			case Sequential:
				latency += d
			}
		}
		done := e.at + latency
		if done > w.clock {
			w.clock = done
		}
		w.accesses++
		w.latBuf = append(w.latBuf, latRec{at: e.at, lat: latency, client: int32(v)})
		w.perClient[v-w.lo] += latency
		w.perClientN[v-w.lo]++
		if w.lat != nil {
			w.lat.Observe(latency)
		}
		if w.slo {
			w.rec.sloAccess(w.runID, done, latency, 0, false, w.accNodes)
		}
		if w.ht != nil {
			w.ht.Observe(e.at, v, w.accNodes)
		}
		if tr != nil {
			tr.End = done
			tr.Latency = latency
			markStraggler(tr)
			w.traces = append(w.traces, keyedTrace{at: e.at, client: v, access: e.access, tr: *tr})
		}
		if w.ts != nil {
			w.ts.done.push(done)
		}
		w.lastAt = e.at
		limit := cfg.AccessesPerClient
		if w.counts != nil {
			limit = w.counts[v]
		}
		if e.access+1 < limit {
			think := 0.0
			if cfg.InterAccessTime > 0 {
				think = st.ExpFloat64() * cfg.InterAccessTime
			}
			w.q.push(event{at: done + think, client: v, access: e.access + 1})
		}
	}
	w.sh.Count("netsim.events", w.events)
	w.sh.Count("netsim.messages", w.messages)
	w.sh.GaugeMax("netsim.max_queue_depth", float64(w.maxDepth))
}

// mergeLatRecs k-way merges the workers' canonically ordered latency
// buffers and returns the latency sum folded in the merged order — the
// same fold for every worker count, hence the same bits. When out is
// non-nil the merged latencies are stored there too.
func mergeLatRecs(bufs [][]latRec, out *[]float64) float64 {
	idx := make([]int, len(bufs))
	if out != nil {
		total := 0
		for _, b := range bufs {
			total += len(b)
		}
		*out = make([]float64, 0, total)
	}
	var sum float64
	for {
		best := -1
		for w, b := range bufs {
			if idx[w] >= len(b) {
				continue
			}
			if best < 0 || latLess(b[idx[w]], bufs[best][idx[best]]) {
				best = w
			}
		}
		if best < 0 {
			return sum
		}
		r := bufs[best][idx[best]]
		if out != nil {
			*out = append(*out, r.lat)
		}
		sum += r.lat
		idx[best]++
	}
}

// runSharded is the engine behind Run.
func runSharded(cfg Config) (*Stats, error) {
	ins := cfg.Instance
	n := ins.M.N()
	var counts []int
	if ins.Rates != nil {
		counts = clientAccessCounts(ins.Rates, n, cfg.AccessesPerClient)
	}
	cdf, acc := quorumCDF(ins)
	W := clampWorkers(cfg.Workers, n)

	sp := obs.Start("netsim.run")
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

	ws := make([]*runWorker, W)
	for i := 0; i < W; i++ {
		lo, hi := i*n/W, (i+1)*n/W
		w := &runWorker{
			cfg: &cfg, id: i, lo: lo, hi: hi,
			counts: counts, cdf: cdf, acc: acc,
			rec: rec, runID: runID, slo: slo,
			sampleEvery: sampleEvery, traceSeed: traceSeed,
			streams:    make([]prng, hi-lo),
			nodeHits:   make([]int64, n),
			perClient:  make([]float64, hi-lo),
			perClientN: make([]int, hi-lo),
			latBuf:     make([]latRec, 0, ownedAccesses(counts, cfg.AccessesPerClient, lo, hi)),
		}
		w.sh = obs.NewShard(sp)
		w.lat = w.sh.Hist("netsim.access_latency")
		if ht != nil {
			w.ht = shards[i]
		}
		if slo || w.ht != nil {
			w.accNodes = make([]int, 0, 16)
		}
		w.ts = newTSStateSink(rec, runID, func(s TSample) { w.tsBuf = append(w.tsBuf, s) })
		ws[i] = w
	}
	runWorkers(W, func(i int) { ws[i].run() })

	stats := &Stats{
		Mode:      cfg.Mode,
		PerClient: make([]float64, n),
		NodeHits:  make([]int64, n),
	}
	// Trailing time-series boundaries: a shard whose events ended early
	// still owes samples up to the globally last event, filled from its
	// (final) local state.
	maxAt := 0.0
	for _, w := range ws {
		if w.lastAt > maxAt {
			maxAt = w.lastAt
		}
	}
	latBufs := make([][]latRec, W)
	traceBufs := make([][]keyedTrace, W)
	tsBufs := make([][]TSample, W)
	for i, w := range ws {
		if w.ts != nil {
			w.ts.advance(maxAt, w.fillSample)
		}
		stats.Accesses += w.accesses
		if w.clock > stats.Clock {
			stats.Clock = w.clock
		}
		for v := 0; v < n; v++ {
			stats.NodeHits[v] += w.nodeHits[v]
		}
		for v := w.lo; v < w.hi; v++ {
			if c := w.perClientN[v-w.lo]; c > 0 {
				stats.PerClient[v] = w.perClient[v-w.lo] / float64(c)
			}
		}
		latBufs[i] = w.latBuf
		traceBufs[i] = w.traces
		tsBufs[i] = w.tsBuf
		w.sh.Merge()
	}
	stats.AvgLatency = mergeLatRecs(latBufs, &stats.latencies) / float64(stats.Accesses)
	stats.EmpiricalLoad = make([]float64, n)
	totalAccesses := float64(stats.Accesses)
	for v := 0; v < n; v++ {
		stats.EmpiricalLoad[v] = float64(stats.NodeHits[v]) / totalAccesses
	}
	if rec != nil {
		traced := mergeTraces(rec, traceBufs)
		obs.Count("netsim.traced_accesses", traced)
		mergeSamples(rec, tsBufs)
	}
	if err := mergeHeatShards(ht, shards); err != nil {
		return nil, err
	}
	return stats, nil
}
