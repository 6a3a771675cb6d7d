package netsim

// Sharded deterministic discrete-event engine (conservative-window PDES),
// the one engine behind Run, RunWithFailures and RunQueueing. Run and
// RunWithFailures share one access loop (parallel_run.go), Run being its
// failure-free case; RunQueueing has the windowed loop of
// parallel_queueing.go. All three share one run setup and teardown
// (runEnv, below).
//
// Config.Workers / QueueConfig.Workers / FailureConfig.Workers set the
// degree of parallelism: the simulation entities (clients, and for the
// queueing simulator also the node service queues) are partitioned across
// W workers, each with its own event wheel. Determinism rests on three
// ingredients:
//
//  1. Per-entity RNG streams. Every client (and every node, for service
//     times) draws from a private splitmix64 counter stream seeded from
//     (Seed, entity id). An entity's draws depend only on its own event
//     order, never on how entities interleave globally, so the outcome is
//     invariant under the number of workers and the shard assignment.
//  2. A canonical total event order. Ties at equal virtual time break on
//     a composite key of the event's identity (kind, client, access,
//     node, member slot) instead of heap insertion order, so every shard
//     — and any merge of shards — orders events identically.
//  3. Conservative time windows (queueing only). Clients interact through
//     the node FIFOs, so shards exchange events at barriers and each
//     round processes only the window [T, T+L) that no in-flight
//     cross-shard event can invalidate, where the lookahead L is the
//     minimum distance between any client and any quorum-hosting node in
//     different shards. The propagation-only simulators have no
//     cross-entity interaction at all, so their lookahead is unbounded
//     and workers run barrier-free to completion.
//
// Results are merged in fixed canonical order: per-access records k-way
// merge on (at, client, access); integer statistics (node hits, SLO
// window counts, heat sketch cells, histogram buckets) are associative
// and merge losslessly in any order; floating-point accumulations fold
// either over the canonical merged stream or per entity in index order,
// so the same bits come out for every worker count.
//
// Contract: with the same Seed, every Workers value produces
// bitwise-identical Stats / FailureStats / QueueStats, traces, SLO
// windows, time-series samples and heat sketches. Workers = 0 means one
// worker, which runs inline on the caller's goroutine.

import (
	"math"
	"sync"

	"quorumplace/internal/heat"
	"quorumplace/internal/obs"
	"quorumplace/internal/placement"
)

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Stream salts separating the per-entity RNG stream families of one run.
const (
	streamAccess  = 0x7a25e6f3c1d40b19 // client streams: quorum sampling, think times, crash states
	streamService = 0x3c6ef372fe94f82b // node streams: queueing service times
	streamTrace   = 0x5851f42d4c957f2d // deterministic trace-sampling hash
)

// prng is an 8-byte splitmix64 counter stream, cheap enough that every
// client and node of a million-entity run affords a private stream (the
// standard library's lagged-Fibonacci source carries 607 words of state,
// 5 KB per stream).
type prng struct{ state uint64 }

// newPRNG derives the stream for one entity of one run.
func newPRNG(seed int64, stream uint64, id int) prng {
	return prng{state: mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ stream ^ uint64(id)*0xd1342543de82ef95)}
}

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	return mix64(p.state)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits.
func (p *prng) Float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponential draw of mean 1 by inversion.
func (p *prng) ExpFloat64() float64 {
	return -math.Log(1 - p.Float64())
}

// shardOfEntity maps entity index v to its shard under the block
// partition of n entities over w shards (shard s owns the contiguous
// index range [⌊s·n/w⌋, ⌊(s+1)·n/w⌋)). The expression is the exact
// inverse of those floored bounds: s is the largest shard with
// ⌊s·n/w⌋ ≤ v, i.e. the largest s with s·n < (v+1)·w.
func shardOfEntity(v, n, w int) int {
	return ((v+1)*w - 1) / n
}

// clampWorkers resolves a Workers knob to the number of shards: 0 means
// one, and counts beyond the entity count clamp to it (spare workers
// would own empty shards; the result is identical either way, the clamp
// just skips spawning them).
func clampWorkers(workers, n int) int {
	if workers < 1 {
		return 1
	}
	if workers > n {
		return n
	}
	return workers
}

// runWorkers calls fn for every worker index 0..w-1 concurrently and
// waits for all of them. A single worker runs inline, with no goroutine
// or WaitGroup.
func runWorkers(w int, fn func(i int)) {
	if w == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fn(i) }(i)
	}
	wg.Wait()
}

// shouldTraceDet is the trace-sampling predicate: a deterministic
// pseudo-random 1-in-every subset keyed by (seed, client, access).
// Hashing the access identity, rather than counting accesses in global
// event order (which no shard can know locally), keeps the expected rate
// at 1 in every while staying invariant under sharding.
func shouldTraceDet(traceSeed uint64, client, access, every int) bool {
	if every <= 1 {
		return true
	}
	h := mix64(traceSeed ^ uint64(client)*0x9e3779b97f4a7c15 ^ uint64(access)*0xd1342543de82ef95)
	return h%uint64(every) == 0
}

// traceSeedFor derives the sampling hash salt of one run.
func traceSeedFor(seed int64) uint64 {
	return mix64(uint64(seed) ^ streamTrace)
}

// latRec is one completed access in a worker's canonical-order buffer:
// enough to k-way merge latency streams across shards on (at, client)
// and re-fold the global sums in canonical order.
type latRec struct {
	at     float64 // virtual time the access-start event popped
	lat    float64
	client int32
}

// latLess orders latency records canonically. Records of one client are
// already in access order within their worker stream, so (at, client) is
// a total order across streams (ties within a client keep stream order
// because the merge is stable for equal keys).
func latLess(a, b *latRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.client < b.client
}

// keyedTrace is a completed AccessTrace held back in a worker buffer
// until the canonical merge replays it into the shared Recorder.
type keyedTrace struct {
	at     float64 // recorder-order key: the event time of the access
	client int
	access int
	tr     AccessTrace
}

func traceLess(a, b *keyedTrace) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.client != b.client {
		return a.client < b.client
	}
	return a.access < b.access
}

// mergeSorted visits the records of canonically ordered worker buffers
// in merged canonical order (a k-way merge); equal keys, which only one
// client's records can share, keep their buffer order.
func mergeSorted[T any](bufs [][]T, less func(a, b *T) bool, visit func(*T)) {
	idx := make([]int, len(bufs))
	for {
		best := -1
		for w, b := range bufs {
			if idx[w] < len(b) && (best < 0 || less(&b[idx[w]], &bufs[best][idx[best]])) {
				best = w
			}
		}
		if best < 0 {
			return
		}
		visit(&bufs[best][idx[best]])
		idx[best]++
	}
}

// mergeSamples folds per-worker time-series buffers into rec. Worker w's
// k-th sample sits at the k-th interval boundary (every worker emits the
// identical boundary sequence after its trailing advance), so samples
// combine index-by-index: integer gauges add, vectors add elementwise.
func mergeSamples(rec *Recorder, buffers [][]TSample) {
	if len(buffers) == 0 {
		return
	}
	n := 0
	for _, b := range buffers {
		if len(b) > n {
			n = len(b)
		}
	}
	for k := 0; k < n; k++ {
		var out TSample
		first := true
		for _, b := range buffers {
			if k >= len(b) {
				continue
			}
			s := b[k]
			if first {
				out = TSample{Run: s.Run, At: s.At}
				first = false
			}
			out.InFlight += s.InFlight
			out.Accesses += s.Accesses
			out.NodeHits = addInto(out.NodeHits, s.NodeHits)
			out.QueueDepth = addInto(out.QueueDepth, s.QueueDepth)
		}
		rec.addSample(out)
	}
}

func addInto[T int | int64](dst, src []T) []T {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// runEnv is the run setup all three engines share: the run's span, the
// resolved recorder and its run id, the SLO switch, the trace-sampling
// salt, the heat sketch, the quorum-sampling CDF and the per-client access
// counts. Each worker takes its share through addWorker; finish is the
// one teardown.
type runEnv struct {
	n, workers  int
	counts      []int     // accesses each client issues
	cdf         []float64 // quorum-sampling CDF, shared read-only by the workers
	cdfTotal    float64
	sp          *obs.Span
	rec         *Recorder
	runID       int
	slo         bool
	sampleEvery int
	traceSeed   uint64
	ht          *heat.Sketch
	shares      []*workerEnv
}

// beginRun opens the span and resolves the telemetry of a run of the
// given number of workers; rec and ht are the config's explicit recorder
// and heat sketch (nil falls back to the process defaults).
func beginRun(span string, ins *placement.Instance, perClient, workers int, seed int64, rec *Recorder, ht *heat.Sketch) runEnv {
	n := ins.M.N()
	e := runEnv{
		n:           n,
		workers:     workers,
		counts:      clientAccessCounts(ins.Rates, n, perClient),
		cdf:         make([]float64, ins.Sys.NumQuorums()),
		sampleEvery: 1,
		traceSeed:   traceSeedFor(seed),
		shares:      make([]*workerEnv, 0, workers),
	}
	for q := range e.cdf {
		e.cdfTotal += ins.Strat.P(q)
		e.cdf[q] = e.cdfTotal
	}
	e.sp = obs.Start(span)
	if e.rec = rec; rec == nil {
		e.rec = defaultRecorder.Load()
	}
	if e.rec != nil {
		e.runID = e.rec.beginRun()
		e.slo = e.rec.sloEnabled()
		if e.slo {
			e.rec.sloSetNodes(e.runID, n)
		}
		e.sampleEvery = e.rec.sampleEveryN()
	}
	if e.ht = ht; ht == nil {
		e.ht = defaultHeat.Load()
	}
	return e
}

// workerEnv is one worker's share of the run setup: its block of clients
// (and, for the queueing engine, of nodes), its telemetry and heat shards,
// and the buffers the teardown merges in canonical order.
type workerEnv struct {
	lo, hi      int
	rec         *Recorder // nil when tracing is off
	runID       int
	slo         bool
	sampleEvery int
	traceSeed   uint64
	ht          *heat.Sketch // the worker's heat shard, nil when heat is off
	sh          *obs.Shard   // the worker's telemetry shard, nil when telemetry is off
	lat         *obs.LogHist // the shard's access-latency histogram, nil when off
	accNodes    []int        // nodes the current access hit; nil unless SLO or heat reads them
	ts          *tsState     // nil unless the recorder samples a time series
	latBuf      []latRec     // completed accesses, canonical order
	traces      []keyedTrace // sampled traces, canonical order
	lastAt      float64      // time of the last processed event (nondecreasing)
}

// addWorker fills in worker i's share of the setup: the block partition
// [⌊i·n/W⌋, ⌊(i+1)·n/W⌋) of the entities, and a latency buffer sized for
// the owned clients' accesses. src fills the worker's time-series gauges;
// nil records no time series.
func (e *runEnv) addWorker(we *workerEnv, i int, src sampleSource) {
	lo, hi := i*e.n/e.workers, (i+1)*e.n/e.workers
	owned := 0
	for _, c := range e.counts[lo:hi] {
		owned += c
	}
	*we = workerEnv{
		lo: lo, hi: hi,
		rec: e.rec, runID: e.runID, slo: e.slo,
		sampleEvery: e.sampleEvery, traceSeed: e.traceSeed,
		latBuf: make([]latRec, 0, owned),
	}
	we.sh = obs.NewShard(e.sp)
	we.lat = we.sh.Hist("netsim.access_latency")
	if e.ht != nil {
		// A private shard keeps heat observation free of contention; the
		// shards merge losslessly into the target in finish.
		we.ht = e.ht.NewShard()
	}
	if e.slo || we.ht != nil {
		we.accNodes = make([]int, 0, 16)
	}
	if src != nil {
		we.ts = newTSState(e.rec, e.runID, src)
	}
	e.shares = append(e.shares, we)
}

// latencySum merges the workers' latency buffers in canonical order and
// returns the latency sum folded in that order — the same fold for every
// worker count, hence the same bits. When out is non-nil the merged
// latencies are stored there too.
func (e *runEnv) latencySum(out *[]float64) float64 {
	bufs := make([][]latRec, len(e.shares))
	total := 0
	for i, we := range e.shares {
		bufs[i] = we.latBuf
		total += len(we.latBuf)
	}
	var sum float64
	if out != nil {
		*out = make([]float64, 0, total)
	}
	fold := func(r *latRec) {
		sum += r.lat
		if out != nil {
			*out = append(*out, r.lat)
		}
	}
	if len(bufs) == 1 { // one buffer is already in canonical order
		for i := range bufs[0] {
			fold(&bufs[0][i])
		}
		return sum
	}
	mergeSorted(bufs, latLess, fold)
	return sum
}

// finish is the teardown all three engines share. It emits each worker's
// trailing time-series boundaries up to the run's last event (a worker
// whose events ended early still owes them, filled from its final state),
// merges the telemetry shards, replays the buffered traces into the
// recorder in canonical order, merges the time-series samples and folds
// the heat shards into the target sketch (integer cells: any order yields
// the same bits). It returns the time of the run's last event.
func (e *runEnv) finish() (float64, error) {
	lastAt := 0.0
	for _, we := range e.shares {
		if we.lastAt > lastAt {
			lastAt = we.lastAt
		}
	}
	for _, we := range e.shares {
		if we.ts != nil {
			we.ts.advance(lastAt)
		}
		we.sh.Merge()
	}
	if e.rec != nil {
		traces := make([][]keyedTrace, len(e.shares))
		samples := make([][]TSample, len(e.shares))
		for i, we := range e.shares {
			traces[i] = we.traces
			if we.ts != nil {
				samples[i] = we.ts.buf
			}
		}
		var traced int64
		mergeSorted(traces, traceLess, func(kt *keyedTrace) {
			e.rec.add(kt.tr)
			traced++
		})
		obs.Count("netsim.traced_accesses", traced)
		mergeSamples(e.rec, samples)
	}
	if e.ht != nil {
		for _, we := range e.shares {
			if err := e.ht.Merge(we.ht); err != nil {
				return lastAt, err
			}
		}
	}
	return lastAt, nil
}
