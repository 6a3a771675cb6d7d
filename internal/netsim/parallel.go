package netsim

// Sharded deterministic discrete-event engine (conservative-window PDES),
// the one engine behind Run, RunWithFailures and RunQueueing.
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

// ownedAccesses returns how many accesses the clients in [lo, hi) issue
// in total, so a worker can size its per-access buffers up front.
func ownedAccesses(counts []int, perClient, lo, hi int) int {
	if counts == nil {
		return (hi - lo) * perClient
	}
	total := 0
	for _, c := range counts[lo:hi] {
		total += c
	}
	return total
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
func latLess(a, b latRec) bool {
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

func traceLess(a, b keyedTrace) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.client != b.client {
		return a.client < b.client
	}
	return a.access < b.access
}

// mergeTraces replays per-worker trace buffers into rec in canonical
// order (k-way merge; each buffer is already canonically ordered).
func mergeTraces(rec *Recorder, buffers [][]keyedTrace) int64 {
	idx := make([]int, len(buffers))
	var added int64
	for {
		best := -1
		for w, b := range buffers {
			if idx[w] >= len(b) {
				continue
			}
			if best < 0 || traceLess(b[idx[w]], buffers[best][idx[best]]) {
				best = w
			}
		}
		if best < 0 {
			return added
		}
		rec.add(buffers[best][idx[best]].tr)
		added++
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
			out.NodeHits = addInt64(out.NodeHits, s.NodeHits)
			out.QueueDepth = addInt(out.QueueDepth, s.QueueDepth)
		}
		rec.addSample(out)
	}
}

func addInt64(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

func addInt(dst, src []int) []int {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// quorumCDF precomputes the quorum-sampling CDF shared read-only by all
// workers.
func quorumCDF(ins *placement.Instance) (cdf []float64, total float64) {
	nQ := ins.Sys.NumQuorums()
	cdf = make([]float64, nQ)
	acc := 0.0
	for q := 0; q < nQ; q++ {
		acc += ins.Strat.P(q)
		cdf[q] = acc
	}
	return cdf, acc
}

// heatShards builds one empty shard sketch per worker when a sketch is
// attached (observation stays contention-free on the hot path; the
// shards Merge losslessly into the target after the fan-in barrier).
func heatShards(ht *heat.Sketch, workers int) []*heat.Sketch {
	if ht == nil {
		return nil
	}
	shards := make([]*heat.Sketch, workers)
	for w := range shards {
		shards[w] = ht.NewShard()
	}
	return shards
}

// mergeHeatShards folds worker sketches into the target in worker order
// (integer cells: any order yields the same bits).
func mergeHeatShards(ht *heat.Sketch, shards []*heat.Sketch) error {
	if ht == nil {
		return nil
	}
	for _, sh := range shards {
		if err := ht.Merge(sh); err != nil {
			return err
		}
	}
	return nil
}
