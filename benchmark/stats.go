package main

import (
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the R-7 estimator). xs must not be empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// subSeed derives an independent input seed for one part of a run
// (a round, a lifetime, a step) from the run seed, folding in each part
// and scrambling with the splitmix64 finalizer.
func subSeed(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return int64(x >> 1)
}

// retainedMB returns the live heap, in MiB, that the structures drop
// releases: the live heap while they are reachable minus the live heap
// after drop clears the last references to them. The benchmark's own
// bookkeeping stays reachable in both readings, so it cancels out.
func retainedMB(drop func()) float64 {
	with := liveHeap()
	drop()
	return float64(with-liveHeap()) / (1 << 20)
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// clock is a run's measurement time. A run completes its fixed set of
// rounds or lifetimes first, then starts more while time is left.
type clock struct {
	start   time.Time
	seconds float64
}

func newClock(seconds float64) *clock { return &clock{start: time.Now(), seconds: seconds} }

func (c *clock) more() bool { return since(c.start) < c.seconds }

// setupReps is how many times each round or lifetime builds its inputs
// (the builds are identical), so setup_s is a median over many samples.
const setupReps = 3

// setupRun runs f setupReps times, appends each duration to samples and
// returns the last build.
func setupRun[T any](samples *[]float64, f func() (T, error)) (T, error) {
	var out T
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		v, err := f()
		*samples = append(*samples, since(t0))
		if err != nil {
			return out, err
		}
		out = v
	}
	return out, nil
}

// setCommon reports the end-to-end metrics every workload measures the
// same way. heaps come from the fixed set only.
func setCommon(r *result, setups, waits []float64, waitNote string, heaps []float64, heapNote string) {
	r.set("setup_s", quantile(setups, 0.5), len(setups), "median set-up time")
	r.set("wait_p50_ms", quantile(waits, 0.5)*1e3, len(waits), waitNote+", p50")
	r.set("wait_p90_ms", quantile(waits, 0.9)*1e3, len(waits), waitNote+", p90")
	r.set("ok_share", 1-float64(r.fixedNotOK)/float64(r.fixedAttempted), r.fixedAttempted,
		"fixed set: ops that passed every check and the capacity rule / ops attempted")
	r.set("heap_mb", mean(heaps), len(heaps), heapNote)
}
