package netsim

import (
	"fmt"

	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

// Failure-injection simulation: nodes crash independently per access epoch,
// and clients retry with freshly sampled quorums until one is fully alive
// or the retry budget is exhausted. This measures the placed system's
// availability (cf. Instance.NodeFailureProbability) together with the
// latency cost of retries — the fault-tolerance dimension of the paper's
// load-dispersion motivation (§1, §2).

// FailureConfig describes a failure-injection run.
type FailureConfig struct {
	Instance  *placement.Instance
	Placement placement.Placement
	Mode      Mode
	// NodeFailureProb is the per-access probability that a given node is
	// down. Failures are resampled independently for every access (a
	// memoryless crash/recovery model).
	NodeFailureProb float64
	// MaxRetries is the number of additional quorum samples a client tries
	// after a failed attempt. 0 means one attempt only.
	MaxRetries int
	// RetryPenalty is the virtual-time latency charged for each failed
	// attempt (e.g. a timeout), including the final attempt of an access
	// that exhausts its retry budget: an access aborted after k failed
	// attempts has latency k·RetryPenalty, and a successful access pays one
	// penalty per preceding failed attempt on top of the successful
	// attempt's latency.
	RetryPenalty      float64
	AccessesPerClient int
	Seed              int64
	// Recorder, when non-nil, captures per-access traces and SLO windows
	// (no time-series samples); probes of failed attempts carry
	// Failed=true and the access records its retry count. Nil falls back
	// to the SetDefaultRecorder recorder. Accesses are laid out
	// back-to-back per client on the virtual timeline by the same access
	// loop as Run, of which Run is the failure-free case: with
	// NodeFailureProb = 0 no crash state is drawn and no attempt fails,
	// so whatever MaxRetries is, every client draws from its stream
	// exactly as under Run (with no think time) and the run reproduces
	// Run's per-access latencies, traces, SLO windows and heat sketch.
	Recorder *Recorder
	// Heat, when non-nil, folds every access into the workload sketch;
	// nodes probed by failed attempts count as messages (the load landed).
	// Nil falls back to the SetDefaultHeat sketch.
	Heat *heat.Sketch
	// Workers is the number of worker shards, with the same contract as
	// Config.Workers: the output is bitwise invariant over it (crash states
	// are drawn from per-client streams).
	Workers int
}

// FailureStats is the outcome of a failure-injection run.
type FailureStats struct {
	Accesses         int
	Succeeded        int
	FailedOutright   int     // accesses that exhausted the retry budget
	Retries          int     // total failed attempts that were retried
	SuccessRate      float64 // Succeeded / Accesses
	AvgLatency       float64 // mean latency of successful accesses (incl. penalties)
	EmpiricalUnavail float64 // fraction of *first attempts* that found no live quorum in the sampled state
}

// RunWithFailures executes the failure-injection simulation.
func RunWithFailures(cfg FailureConfig) (*FailureStats, error) {
	if err := validateCommon(cfg.Instance, cfg.Placement, cfg.AccessesPerClient, cfg.Workers); err != nil {
		return nil, err
	}
	if err := validateMode(cfg.Mode); err != nil {
		return nil, err
	}
	if !(cfg.NodeFailureProb >= 0 && cfg.NodeFailureProb <= 1) {
		return nil, fmt.Errorf("netsim: NodeFailureProb = %v outside [0,1]", cfg.NodeFailureProb)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("netsim: MaxRetries = %d, want >= 0", cfg.MaxRetries)
	}
	if !finite(cfg.RetryPenalty) || cfg.RetryPenalty < 0 {
		return nil, fmt.Errorf("netsim: RetryPenalty = %v, want finite >= 0", cfg.RetryPenalty)
	}
	return runFailuresSharded(cfg)
}

// anyQuorumAlive reports whether some quorum of sys is placed entirely on
// alive nodes.
func anyQuorumAlive(sys *quorum.System, pl placement.Placement, alive []bool) bool {
	for qi := 0; qi < sys.NumQuorums(); qi++ {
		ok := true
		for _, u := range sys.Quorum(qi) {
			if !alive[pl.Node(u)] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
