package placement

import (
	"fmt"
	"math"

	"quorumplace/internal/gap"
	"quorumplace/internal/obs"
)

// This file implements the total-delay objective of §5 (Theorems 1.4 and
// 5.1). Because Γ_f(v) = Σ_u load(u)·d(v, f(u)) decomposes per element, the
// problem is exactly a Generalized Assignment Problem:
//
//	jobs     = elements u, with machine-independent size load(u)
//	machines = nodes v, with capacity cap(v)
//	cost     = load(u) · Avg_{v'} d(v', v)   (rate-weighted when set)
//
// Solving the GAP LP and rounding with Shmoys–Tardos yields a placement
// whose average total-delay is at most the optimum over capacity-respecting
// placements, with load_f(v) ≤ 2·cap(v). Pairs with load(u) > cap(v) are
// forbidden (mirroring constraint (13)); an optimal capacity-respecting
// placement never uses them, so the LP bound is unaffected, and forbidding
// them is what caps the rounded load at cap + p^max ≤ 2·cap.

// TotalDelayResult is the outcome of SolveTotalDelay.
type TotalDelayResult struct {
	Placement Placement
	AvgDelay  float64 // Avg_v Γ_f(v) of the returned placement
	LPBound   float64 // GAP LP optimum ≤ optimal capacity-respecting delay
}

// TotalDelayGAP builds the Theorem 5.1 GAP over the given universe elements
// (nil means the whole universe, in order): machine v is node v with
// capacity cap(v), job i is element elems[i] with size load(elems[i]),
// pairs whose load exceeds the node's capacity are forbidden, and the cost
// of placing elems[i] on v is load·AvgDistToNode(v) under the current
// Rates. Elements must be distinct and inside the universe. This is the one
// construction of the model: SolveTotalDelay solves it as is, and the
// migration planner (internal/migrate) re-costs it with a movement term.
func (ins *Instance) TotalDelayGAP(elems []int) *gap.Instance {
	n := ins.M.N()
	if elems == nil {
		elems = make([]int, ins.Sys.Universe())
		for u := range elems {
			elems[u] = u
		}
	}
	g := &gap.Instance{
		Cost: make([][]float64, n),
		Load: make([][]float64, n),
		T:    append([]float64(nil), ins.Cap...),
	}
	for v := 0; v < n; v++ {
		avg := ins.AvgDistToNode(v)
		g.Cost[v] = make([]float64, len(elems))
		g.Load[v] = make([]float64, len(elems))
		for i, u := range elems {
			l := ins.loads[u]
			g.Cost[v][i] = l * avg
			if l > ins.Cap[v]*(1+capTol) {
				g.Load[v][i] = math.Inf(1)
			} else {
				g.Load[v][i] = l
			}
		}
	}
	return g
}

// SolveTotalDelay runs the Theorem 5.1 algorithm.
func SolveTotalDelay(ins *Instance) (*TotalDelayResult, error) {
	sp := obs.Start("placement.totaldelay")
	defer sp.End()
	g := ins.TotalDelayGAP(nil)
	sk, err := gap.NewSkeleton(g)
	if err != nil {
		return nil, fmt.Errorf("placement: total-delay GAP: %w", err)
	}
	y, lpObj, _, err := sk.SolveLP()
	if err != nil {
		return nil, fmt.Errorf("placement: total-delay GAP: %w", err)
	}
	assign, _, err := gap.Round(g, y)
	if err != nil {
		return nil, fmt.Errorf("placement: total-delay GAP: %w", err)
	}
	pl := NewPlacement(assign)
	return &TotalDelayResult{
		Placement: pl,
		AvgDelay:  ins.AvgTotalDelay(pl),
		LPBound:   lpObj,
	}, nil
}
