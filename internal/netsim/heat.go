package netsim

import (
	"sync/atomic"

	"quorumplace/internal/heat"
)

// Heat sketch plumbing, mirroring the Recorder's per-Config-or-default
// pattern: every simulator feeds the workload sketch (per-client access
// counts, per-node message hits, keyed by the virtual-time epoch of the
// access's issue) either through its Config.Heat field or through the
// process-wide default installed here. With neither, heat observation is
// off and costs one nil check per access.

var defaultHeat atomic.Pointer[heat.Sketch]

// SetDefaultHeat installs (or, with nil, removes) the process-wide default
// heat sketch that simulation runs fall back to when their config carries
// none. Used by the CLI -heat flags so every simulation a command runs
// feeds one sketch.
func SetDefaultHeat(s *heat.Sketch) {
	defaultHeat.Store(s)
}

// DefaultHeat returns the installed default heat sketch, or nil.
func DefaultHeat() *heat.Sketch {
	return defaultHeat.Load()
}
