package gap

import (
	"math"
	"math/rand"
	"testing"
)

// randomInstance builds a feasible random GAP instance: every job fits on
// every machine and total capacity comfortably exceeds total load.
func randomInstance(rng *rand.Rand, m, n int) *Instance {
	ins := &Instance{
		Cost: make([][]float64, m),
		Load: make([][]float64, m),
		T:    make([]float64, m),
	}
	for i := 0; i < m; i++ {
		ins.Cost[i] = make([]float64, n)
		ins.Load[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			ins.Cost[i][j] = 1 + 9*rng.Float64()
			ins.Load[i][j] = 0.5 + rng.Float64()
		}
	}
	for i := 0; i < m; i++ {
		ins.T[i] = 1.5 * float64(n) / float64(m)
	}
	return ins
}

// TestSkeletonMatchesSolveLPBitwise pins that a fresh skeleton's first
// solve (lp.SolveHot with no retained basis) is bit-for-bit the pooled
// one-shot lp.Problem.Solve of the same relaxation, so the one GAP LP entry
// costs one-shot callers no pivots or bits.
func TestSkeletonMatchesSolveLPBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		ins := randomInstance(rng, 3+trial%3, 6+trial)
		if trial%2 == 1 {
			ins.Load[0][0] = math.Inf(1) // exercise the forbidden-pair pattern
		}
		ref, err := NewSkeleton(ins)
		if err != nil {
			t.Fatalf("trial %d: NewSkeleton: %v", trial, err)
		}
		sol, err := ref.prob.Solve()
		if err != nil {
			t.Fatalf("trial %d: lp Solve: %v", trial, err)
		}
		objA := sol.Objective
		yA := make([][]float64, len(ins.T))
		for i := range yA {
			yA[i] = make([]float64, ins.NumJobs())
			for j, v := range ref.vars[i] {
				if v >= 0 {
					yA[i][j] = sol.X[v]
				}
			}
		}
		sk, err := NewSkeleton(ins)
		if err != nil {
			t.Fatalf("trial %d: NewSkeleton: %v", trial, err)
		}
		yB, objB, warm, err := sk.SolveLP()
		if err != nil {
			t.Fatalf("trial %d: SolveLP: %v", trial, err)
		}
		if warm {
			t.Fatalf("trial %d: first skeleton solve claimed warm", trial)
		}
		if objA != objB {
			t.Fatalf("trial %d: objective differs bitwise: %v vs %v", trial, objA, objB)
		}
		for i := range yA {
			for j := range yA[i] {
				if yA[i][j] != yB[i][j] {
					t.Fatalf("trial %d: y[%d][%d] differs bitwise: %v vs %v", trial, i, j, yA[i][j], yB[i][j])
				}
			}
		}
	}
}

// TestSkeletonWarmResolve drives cost and capacity edits through one
// skeleton, comparing every solve against a from-scratch skeleton.
func TestSkeletonWarmResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ins := randomInstance(rng, 4, 10)
	sk, err := NewSkeleton(ins)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sk.SolveLP(); err != nil {
		t.Fatal(err)
	}
	warmCount := 0
	for iter := 0; iter < 30; iter++ {
		cost := make([][]float64, len(ins.Cost))
		for i := range cost {
			cost[i] = make([]float64, len(ins.Cost[i]))
			for j := range cost[i] {
				cost[i][j] = 1 + 9*rng.Float64()
			}
		}
		caps := make([]float64, len(ins.T))
		for i := range caps {
			caps[i] = ins.T[i] * (0.9 + 0.4*rng.Float64())
		}
		if err := sk.SetCosts(cost); err != nil {
			t.Fatal(err)
		}
		if err := sk.SetCapacities(caps); err != nil {
			t.Fatal(err)
		}
		y, obj, warm, err := sk.SolveLP()
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if warm {
			warmCount++
		}
		ref := &Instance{Cost: cost, Load: ins.Load, T: caps}
		yRef, objRef, err := solveLP(ref)
		if err != nil {
			t.Fatalf("iter %d: reference: %v", iter, err)
		}
		if math.Abs(obj-objRef) > 1e-6*(1+math.Abs(objRef)) {
			t.Fatalf("iter %d (warm=%v): objective %v != reference %v", iter, warm, obj, objRef)
		}
		// The warm solve may sit on a different vertex of the same optimal
		// face, so compare per-job mass, not y entrywise.
		for j := range yRef[0] {
			sum := 0.0
			for i := range y {
				sum += y[i][j]
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Fatalf("iter %d: job %d mass %v", iter, j, sum)
			}
		}
	}
	if warmCount == 0 {
		t.Fatal("no solve took the warm path")
	}
}

// TestSkeletonForbid checks SetFixed-based pair exclusion on top of the
// structural pattern.
func TestSkeletonForbid(t *testing.T) {
	ins := simpleInstance()
	sk, err := NewSkeleton(ins)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sk.SolveLP(); err != nil {
		t.Fatal(err)
	}
	if !sk.Forbid(0, 0, true) {
		t.Fatal("Forbid on an allowed pair returned false")
	}
	y, _, _, err := sk.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if y[0][0] != 0 {
		t.Fatalf("forbidden pair got mass %v", y[0][0])
	}
	// Releasing restores the original optimum.
	if !sk.Forbid(0, 0, false) {
		t.Fatal("release returned false")
	}
	_, obj, _, err := sk.SolveLP()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(obj-7) > 1e-6 {
		t.Fatalf("objective %v after release, want 7", obj)
	}
	// Structurally forbidden pairs have no variable to fix.
	ins2 := simpleInstance()
	ins2.Load[1][2] = math.Inf(1)
	sk2, err := NewSkeleton(ins2)
	if err != nil {
		t.Fatal(err)
	}
	if sk2.Forbid(1, 2, true) {
		t.Fatal("Forbid on a structurally forbidden pair returned true")
	}
}

// TestSkeletonResetWarm checks that ResetWarm forces the next solve cold.
func TestSkeletonResetWarm(t *testing.T) {
	ins := simpleInstance()
	sk, err := NewSkeleton(ins)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := sk.SolveLP(); err != nil {
		t.Fatal(err)
	}
	if _, _, warm, err := sk.SolveLP(); err != nil || !warm {
		t.Fatalf("second solve: warm=%v err=%v, want warm", warm, err)
	}
	sk.ResetWarm()
	if _, _, warm, err := sk.SolveLP(); err != nil || warm {
		t.Fatalf("post-reset solve: warm=%v err=%v, want cold", warm, err)
	}
}

// TestSkeletonRejectsBadShapes checks the dimension validation of the
// re-cost hooks.
func TestSkeletonRejectsBadShapes(t *testing.T) {
	sk, err := NewSkeleton(simpleInstance())
	if err != nil {
		t.Fatal(err)
	}
	if err := sk.SetCosts([][]float64{{1, 1, 1}}); err == nil {
		t.Fatal("short cost matrix accepted")
	}
	if err := sk.SetCosts([][]float64{{1, 1}, {1, 1}}); err == nil {
		t.Fatal("short cost row accepted")
	}
	if err := sk.SetCapacities([]float64{1}); err == nil {
		t.Fatal("short capacity vector accepted")
	}
}
