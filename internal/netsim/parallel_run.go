package netsim

import (
	"sort"

	"quorumplace/internal/graph"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// Propagation engine behind Run and RunWithFailures (see parallel.go for
// the determinism design). Clients never interact in the propagation-only
// simulators — an access touches only its own client's timeline plus
// commutative integer aggregates — so the lookahead is unbounded and the
// shards run barrier-free to completion, merging once at the end.
//
// Both simulators run the one access loop below. Run is its failure-free
// case: no crash draws, one attempt, no penalty. RunWithFailures resamples
// every node's crash state per access from the issuing client's private
// stream, so each shard's draws are a pure function of its own clients'
// access order and the outcome is invariant under the partition.

// accessWorker is one shard of the propagation engine.
type accessWorker struct {
	workerEnv

	// Loop invariants, held in worker fields rather than behind the config.
	mode     Mode
	pl       placement.Placement
	sys      *quorum.System
	m        *graph.Metric
	cdf      []float64
	cdfTotal float64
	nQ       int
	counts   []int // accesses each client issues
	seed     int64
	think    float64 // mean think time between a client's accesses (Run)

	// Failure model (RunWithFailures). alive is nil when nodes never
	// crash, so failure-free runs make no crash draws.
	failures   bool
	failProb   float64
	maxRetries int
	penalty    float64
	alive      []bool

	q        eventQueue
	streams  []prng // one per owned client
	accesses int
	aborted  int
	retries  int64
	noLive   int
	maxDepth int
	clock    float64
	nodeHits []int64   // messages per node, probes of dead nodes included
	latSum   []float64 // per owned client: summed latency of its successful accesses
}

// newAccessWorkers builds the workers of one propagation run; failure
// runs record no time series.
func newAccessWorkers(env *runEnv, ins *placement.Instance, pl placement.Placement, mode Mode, seed int64, failures bool) []*accessWorker {
	ws := make([]*accessWorker, env.workers)
	for i := range ws {
		w := &accessWorker{
			mode: mode, pl: pl, sys: ins.Sys, m: ins.M,
			cdf: env.cdf, cdfTotal: env.cdfTotal, nQ: len(env.cdf),
			counts: env.counts, seed: seed, failures: failures,
			nodeHits: make([]int64, env.n),
		}
		var src sampleSource
		if !failures {
			src = w
		}
		env.addWorker(&w.workerEnv, i, src)
		w.streams = make([]prng, w.hi-w.lo)
		w.latSum = make([]float64, w.hi-w.lo)
		ws[i] = w
	}
	return ws
}

// fillSample populates one time-series boundary with this shard's share of
// the gauges; boundary samples merge additively across shards.
func (w *accessWorker) fillSample(at float64, s *TSample) {
	w.ts.done.popTo(at)
	s.InFlight = len(w.ts.done)
	s.Accesses = w.accesses
	s.NodeHits = append([]int64(nil), w.nodeHits...)
}

func (w *accessWorker) run() {
	for i := range w.streams {
		w.streams[i] = newPRNG(w.seed, streamAccess, w.lo+i)
	}
	for v := w.lo; v < w.hi; v++ {
		if w.counts[v] > 0 {
			w.q.push(event{at: 0, client: v, access: 0})
		}
	}
	// Every client holds at most one pending event, so the queue is never
	// deeper than at the start.
	w.maxDepth = len(w.q)
	for len(w.q) > 0 {
		e := w.q[0]
		if w.ts != nil {
			w.ts.advance(e.at)
		}
		v := e.client
		st := &w.streams[v-w.lo]
		// Crash state for this access epoch, drawn from the client stream:
		// the access's view of the world depends only on (seed, client,
		// access), never on how accesses interleave globally.
		if alive := w.alive; alive != nil {
			// Draw on a local copy of the stream: the loop then keeps its
			// state in a register instead of storing it every draw.
			s, p := *st, w.failProb
			for i := range alive {
				alive[i] = s.Float64() >= p
			}
			*st = s
			if !anyQuorumAlive(w.sys, w.pl, alive) {
				w.noLive++
			}
		}
		w.accesses++
		var tr *AccessTrace
		if w.rec != nil && shouldTraceDet(w.traceSeed, v, e.access, w.sampleEvery) {
			tr = &AccessTrace{Run: w.runID, Client: v, Mode: w.mode, Start: e.at}
		}
		row := w.m.Row(v)
		w.accNodes = w.accNodes[:0]
		qi, elapsed, ok := w.attempt(st, row, e.at, tr)
		retries := 0
		if !ok {
			// Retry with freshly sampled quorums, each failed attempt
			// charging one penalty, until one succeeds or the budget is
			// spent; an exhausted access is charged every penalty.
			penalty := w.penalty
			for retries < w.maxRetries {
				retries++
				var latency float64
				qi, latency, ok = w.attempt(st, row, e.at+penalty, tr)
				if ok {
					elapsed = latency + penalty
					break
				}
				penalty += w.penalty
			}
			if !ok {
				elapsed = penalty
			}
			w.retries += int64(retries)
		}
		done := e.at + elapsed
		if ok {
			w.latBuf = append(w.latBuf, latRec{at: e.at, lat: elapsed, client: int32(v)})
			w.latSum[v-w.lo] += elapsed
			if w.lat != nil {
				w.lat.Observe(elapsed)
			}
		} else {
			w.aborted++
		}
		if done > w.clock {
			w.clock = done
		}
		if w.slo {
			w.rec.sloAccess(w.runID, done, elapsed, int64(retries), !ok, w.accNodes)
		}
		if w.ht != nil {
			w.ht.Observe(e.at, v, w.accNodes)
		}
		if tr != nil {
			tr.Attempts = retries
			if ok {
				tr.Quorum = qi
			} else {
				tr.Attempts++
				tr.Aborted = true
			}
			tr.Latency = elapsed
			tr.End = done
			w.traces = append(w.traces, keyedTrace{at: e.at, client: v, access: e.access, tr: *tr})
		}
		if w.ts != nil {
			w.ts.done.push(done)
		}
		w.lastAt = e.at
		if e.access+1 < w.counts[v] {
			if w.think > 0 {
				done += st.ExpFloat64() * w.think
			}
			w.q.replaceTop(event{at: done, client: v, access: e.access + 1})
		} else {
			w.q.pop()
		}
	}
	w.sh.Count("netsim.events", int64(w.accesses))
	if w.failures {
		w.sh.Count("netsim.retries", w.retries)
		return
	}
	var messages int64
	for _, h := range w.nodeHits {
		messages += h
	}
	w.sh.Count("netsim.messages", messages)
	w.sh.GaugeMax("netsim.max_queue_depth", float64(w.maxDepth))
}

// attempt samples one quorum from the client's stream and probes its
// members from virtual time start, appending the probes to tr when the
// access is traced. It returns the sampled quorum, the attempt's latency
// and whether every member was alive; the first dead member ends the
// attempt. A successful attempt marks its straggler within its own probes.
func (w *accessWorker) attempt(st *prng, row []float64, start float64, tr *AccessTrace) (int, float64, bool) {
	qi := sort.SearchFloat64s(w.cdf, st.Float64()*w.cdfTotal)
	if qi >= w.nQ {
		qi = w.nQ - 1
	}
	members := w.sys.Quorum(qi)
	first := 0
	if tr != nil {
		first = len(tr.Probes)
		if tr.Probes == nil {
			tr.Probes = make([]ProbeSpan, 0, len(members))
		}
	}
	parallel := w.mode == Parallel
	nodeHits, alive, accNodes := w.nodeHits, w.alive, w.accNodes
	var latency float64
	for _, u := range members {
		node := w.pl.Node(u)
		nodeHits[node]++
		if accNodes != nil {
			accNodes = append(accNodes, node)
		}
		if alive != nil && !alive[node] {
			if tr != nil {
				dispatch := start
				if !parallel {
					dispatch += latency
				}
				tr.Probes = append(tr.Probes, ProbeSpan{
					Member: u, Node: node, Dispatch: dispatch,
					Complete: dispatch, Failed: true,
				})
			}
			w.accNodes = accNodes
			return qi, latency, false
		}
		d := row[node]
		if tr != nil {
			dispatch := start
			if !parallel {
				dispatch += latency
			}
			tr.Probes = append(tr.Probes, ProbeSpan{
				Member: u, Node: node,
				Dispatch: dispatch, NetDelay: d, Complete: dispatch + d,
			})
		}
		if parallel {
			if d > latency {
				latency = d
			}
		} else {
			latency += d
		}
	}
	w.accNodes = accNodes
	if tr != nil {
		markStraggler(w.mode, tr.Probes[first:])
	}
	return qi, latency, true
}

// runSharded is the engine behind Run: the access loop without failures.
func runSharded(cfg Config) (*Stats, error) {
	ins := cfg.Instance
	n := ins.M.N()
	env := beginRun("netsim.run", ins, cfg.AccessesPerClient, clampWorkers(cfg.Workers, n), cfg.Seed, cfg.Recorder, cfg.Heat)
	defer env.sp.End()
	ws := newAccessWorkers(&env, ins, cfg.Placement, cfg.Mode, cfg.Seed, false)
	for _, w := range ws {
		w.think = cfg.InterAccessTime
	}
	runWorkers(len(ws), func(i int) { ws[i].run() })

	stats := &Stats{
		Mode:      cfg.Mode,
		PerClient: make([]float64, n),
		NodeHits:  make([]int64, n),
	}
	for _, w := range ws {
		stats.Accesses += w.accesses
		if w.clock > stats.Clock {
			stats.Clock = w.clock
		}
		for v := 0; v < n; v++ {
			stats.NodeHits[v] += w.nodeHits[v]
		}
		for v := w.lo; v < w.hi; v++ {
			if c := w.counts[v]; c > 0 {
				stats.PerClient[v] = w.latSum[v-w.lo] / float64(c)
			}
		}
	}
	stats.AvgLatency = env.latencySum(&stats.latencies) / float64(stats.Accesses)
	stats.EmpiricalLoad = make([]float64, n)
	totalAccesses := float64(stats.Accesses)
	for v := 0; v < n; v++ {
		stats.EmpiricalLoad[v] = float64(stats.NodeHits[v]) / totalAccesses
	}
	if _, err := env.finish(); err != nil {
		return nil, err
	}
	return stats, nil
}

// runFailuresSharded is the engine behind RunWithFailures.
func runFailuresSharded(cfg FailureConfig) (*FailureStats, error) {
	ins := cfg.Instance
	n := ins.M.N()
	env := beginRun("netsim.failures", ins, cfg.AccessesPerClient, clampWorkers(cfg.Workers, n), cfg.Seed, cfg.Recorder, cfg.Heat)
	defer env.sp.End()
	ws := newAccessWorkers(&env, ins, cfg.Placement, cfg.Mode, cfg.Seed, true)
	for _, w := range ws {
		w.failProb = cfg.NodeFailureProb
		w.maxRetries = cfg.MaxRetries
		w.penalty = cfg.RetryPenalty
		if cfg.NodeFailureProb > 0 {
			w.alive = make([]bool, n)
		}
	}
	runWorkers(len(ws), func(i int) { ws[i].run() })

	stats := &FailureStats{}
	var noLive int
	for _, w := range ws {
		stats.Accesses += w.accesses
		stats.FailedOutright += w.aborted
		stats.Retries += int(w.retries)
		noLive += w.noLive
	}
	stats.Succeeded = stats.Accesses - stats.FailedOutright
	// Fold the successful-latency sum over the canonically merged stream so
	// the float bits are independent of the partition.
	latencySum := env.latencySum(nil)
	stats.SuccessRate = float64(stats.Succeeded) / float64(stats.Accesses)
	if stats.Succeeded > 0 {
		stats.AvgLatency = latencySum / float64(stats.Succeeded)
	}
	stats.EmpiricalUnavail = float64(noLive) / float64(stats.Accesses)
	if _, err := env.finish(); err != nil {
		return nil, err
	}
	return stats, nil
}
