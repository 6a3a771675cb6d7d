package netsim

import (
	"fmt"

	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
)

// Queueing simulation: the base simulator charges only propagation delay,
// which is the paper's cost model (Eq. 1). In a deployed system a node that
// is loaded near its capacity also queues requests, coupling the paper's
// two separate concerns — load and delay — into one number. This simulator
// adds FIFO service queues at the nodes: each quorum-element message is
// served at its hosting node with exponential service time, and the access
// completes when the last response returns. It demonstrates *why* the
// capacity constraints matter: placements that violate capacities see
// queueing delay blow up even though their propagation delay is optimal.
//
// The event loop (parallel_queueing.go) is allocation-free once warm:
// events live in a value-typed binary heap (no container/heap interface
// boxing), per-access bookkeeping sits in one dense slice indexed by
// (client, access), and the per-node FIFO queues are index-linked lists
// over one shared message arena with a free list, so enqueue/dequeue
// recycle arena slots instead of growing and re-slicing per-node slices.

// QueueConfig describes a queueing simulation run.
type QueueConfig struct {
	Instance  *placement.Instance
	Placement placement.Placement
	// ArrivalRate is each client's Poisson access rate (accesses per time
	// unit, open loop) when rates are uniform. Under Instance.Rates a
	// client apportioned k accesses issues at
	// ArrivalRate·k/AccessesPerClient, so a weighted run offers the same
	// total load over the same span as the unweighted one, concentrated on
	// the heavy clients.
	ArrivalRate float64
	// ServiceMean is the mean (exponential) service time per quorum-element
	// message at a capacity-1 node; node v serves with mean
	// ServiceMean/cap(v), so higher-capacity nodes are faster. Zero means
	// instantaneous service (pure propagation delay).
	ServiceMean float64
	// AccessesPerClient is the number of accesses each client issues; as
	// in Run, setting Instance.Rates gives each client its
	// rate-proportional share of the n·AccessesPerClient total instead
	// (zero-rate clients issue none), at the scaled rate above.
	AccessesPerClient int
	Seed              int64
	// Recorder, when non-nil, captures per-access traces (with queue-wait
	// and service-time probe spans) and time-series samples; nil falls back
	// to the SetDefaultRecorder recorder.
	Recorder *Recorder
	// Heat, when non-nil, folds every access into the workload sketch at
	// its issue time (when the load lands on the node queues). Nil falls
	// back to the SetDefaultHeat sketch.
	Heat *heat.Sketch
	// Workers is the number of worker shards of the conservative-window
	// engine (parallel_queueing.go), with the same contract as
	// Config.Workers: the output is bitwise invariant over it. Response
	// propagation is an explicit event, so Clock also covers the final
	// response's flight time.
	Workers int
}

// QueueStats is the outcome of a queueing simulation.
type QueueStats struct {
	Accesses    int
	AvgLatency  float64   // mean access latency incl. queueing and RTT propagation
	AvgWait     float64   // mean queueing wait per message (excl. service)
	Utilization []float64 // per-node busy fraction
	Clock       float64
}

// pendingMsg is a message waiting in or being served by a node queue. Slots
// live in one shared arena; next links them into per-node FIFO lists and,
// when free, into the arena's free list.
type pendingMsg struct {
	client, access int
	arrivedAt      float64
	slot           int // member slot within the access's quorum
	next           int // next message in the node FIFO / free list, -1 = none
}

// accessState tracks one in-flight access in the dense (client, access)
// state table.
type accessState struct {
	remaining int
	issuedAt  float64
	lastResp  float64
	tr        *AccessTrace // non-nil when this access is traced
}

// RunQueueing executes the queueing simulation.
func RunQueueing(cfg QueueConfig) (*QueueStats, error) {
	if err := validateCommon(cfg.Instance, cfg.Placement, cfg.AccessesPerClient, cfg.Workers); err != nil {
		return nil, err
	}
	if !finite(cfg.ArrivalRate) || cfg.ArrivalRate <= 0 {
		return nil, fmt.Errorf("netsim: ArrivalRate = %v, want finite > 0", cfg.ArrivalRate)
	}
	if !finite(cfg.ServiceMean) || cfg.ServiceMean < 0 {
		return nil, fmt.Errorf("netsim: ServiceMean = %v, want finite >= 0", cfg.ServiceMean)
	}
	return runQueueingSharded(cfg)
}
