package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"quorumplace/internal/graph"
	"quorumplace/internal/heat"
	"quorumplace/internal/placement"
	"quorumplace/internal/quorum"
)

func buildInstance(t *testing.T, seed int64) (*placement.Instance, placement.Placement) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 8
	g := graph.ErdosRenyiConnected(n, 0.4, 1, 4, rng)
	m, err := graph.NewMetricFromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	sys := quorum.Majority(4, 3)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1.6
	}
	ins, err := placement.NewInstance(m, caps, sys, quorum.Uniform(sys.NumQuorums()))
	if err != nil {
		t.Fatal(err)
	}
	old, err := placement.RandomFeasiblePlacement(ins, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	return ins, old
}

func newDaemon(t *testing.T, seed int64, cfg Config) *Daemon {
	t.Helper()
	ins, old := buildInstance(t, seed)
	cfg.Instance, cfg.Initial = ins, old
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// skewObserve pushes a deterministic hot-spot workload (clients 0 and 1) into
// the daemon so the live estimate drifts far from the uniform plan demand.
func skewObserve(d *Daemon, accesses int) {
	for i := 0; i < accesses; i++ {
		at := 0.1 * float64(i)
		d.Observe(at, i%2, []int{i % 4})
	}
}

// TestDaemonDeterministicReplay drives two identically-configured daemons
// through the same observation and tick sequence; the tick logs and final
// placements must be deeply equal (no wall-clock or map-order leakage).
func TestDaemonDeterministicReplay(t *testing.T) {
	run := func() ([]TickRecord, []int) {
		d := newDaemon(t, 42, Config{Shards: 3, Lambda: 0.5})
		for round := 0; round < 4; round++ {
			skewObserve(d, 30)
			if _, err := d.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		// Fold in a run-local sketch, as the netsim pipeline does.
		local := heat.New(heat.Options{})
		for i := 0; i < 20; i++ {
			local.Observe(0.2*float64(i), i%3, []int{1})
		}
		if err := d.IngestSketch(local); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			if _, err := d.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		return d.Ticks(), d.Placement().Map()
	}
	ticksA, placeA := run()
	ticksB, placeB := run()
	if !reflect.DeepEqual(ticksA, ticksB) {
		t.Fatalf("tick logs differ between identical runs:\n%v\n%v", ticksA, ticksB)
	}
	if !reflect.DeepEqual(placeA, placeB) {
		t.Fatalf("final placements differ: %v vs %v", placeA, placeB)
	}
}

// TestDaemonIdleWithoutDrift checks the solver stays idle while the plan is
// fresh: no observations (or an on-plan workload) must never trigger a
// re-plan.
func TestDaemonIdleWithoutDrift(t *testing.T) {
	d := newDaemon(t, 7, Config{Shards: 2, Lambda: 1})
	before := d.Placement().Map()
	for i := 0; i < 5; i++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Alerted || rec.Shard != -1 || len(rec.Moves) != 0 {
			t.Fatalf("tick %d re-planned without drift: %+v", i, rec)
		}
	}
	if !reflect.DeepEqual(before, d.Placement().Map()) {
		t.Fatal("placement changed without any re-plan")
	}
}

// TestDaemonAlertCycle checks the drift alert arms a full K-shard re-plan
// cycle on its rising edge, and that completing the cycle re-bases the plan
// demand so the alert re-arms (drift against the new plan drops).
func TestDaemonAlertCycle(t *testing.T) {
	const k = 2
	d := newDaemon(t, 11, Config{Shards: k, Lambda: 0.25, DriftThreshold: 0.2})
	skewObserve(d, 200)

	rep, err := d.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TV < 0.2 || rep.LiveWeight < DefaultMinLiveWeight {
		t.Fatalf("fixture does not drift enough: TV=%v weight=%v", rep.TV, rep.LiveWeight)
	}

	// The cycle: exactly k consecutive re-planning ticks, round-robin shards.
	for i := 0; i < k; i++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Alerted && i == 0 {
			t.Fatalf("tick %d: alert did not trip (TV=%v)", i, rec.DriftTV)
		}
		if rec.Shard != i%k {
			t.Fatalf("tick %d re-planned shard %d, want %d", i, rec.Shard, i%k)
		}
	}

	// Cycle complete: plan demand is now the drifted target, so drift is
	// (near) zero and the next tick must not re-plan.
	rep, err = d.Drift()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TV >= 0.2 {
		t.Fatalf("drift did not re-base after cycle: TV=%v", rep.TV)
	}
	rec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Alerted || rec.Shard != -1 {
		t.Fatalf("post-cycle tick still re-planning: %+v", rec)
	}

	// The composed placement must stay within the rounding guarantee.
	loads := d.cfg.Instance.NodeLoads(d.Placement())
	for v, l := range loads {
		if l > 2*d.cfg.Instance.Cap[v] {
			t.Fatalf("node %d load %v exceeds 2·cap %v", v, l, d.cfg.Instance.Cap[v])
		}
	}
}

// TestDaemonIngestAdvancesClock checks IngestSketch shifts run-local epochs
// past the current base and advances the virtual clock.
func TestDaemonIngestAdvancesClock(t *testing.T) {
	d := newDaemon(t, 3, Config{Heat: heat.Options{EpochLen: 2}})
	if d.Now() != 0 {
		t.Fatalf("fresh daemon Now = %v", d.Now())
	}
	run := heat.New(heat.Options{EpochLen: 2})
	run.Observe(0.5, 0, []int{1}) // epoch 0
	run.Observe(7.0, 1, []int{2}) // epoch 3
	if err := d.IngestSketch(run); err != nil {
		t.Fatal(err)
	}
	// Base advanced past epoch 3 → 4 epochs × len 2.
	if got := d.Now(); got != 8 {
		t.Fatalf("Now = %v after ingest, want 8", got)
	}
	if err := d.IngestSketch(run); err != nil {
		t.Fatal(err)
	}
	if got := d.Now(); got != 16 {
		t.Fatalf("Now = %v after second ingest, want 16", got)
	}
	// Epoch-length mismatch is rejected.
	if err := d.IngestSketch(heat.New(heat.Options{EpochLen: 1})); err == nil {
		t.Fatal("mismatched epoch length accepted")
	}
}

// TestDaemonAlwaysReplanWarm checks steady-state repair mode reuses the LP
// basis after each shard's first solve, and ResetWarm forces cold again.
func TestDaemonAlwaysReplanWarm(t *testing.T) {
	const k = 2
	d := newDaemon(t, 13, Config{Shards: k, Lambda: 0.5, AlwaysReplan: true})
	skewObserve(d, 60)
	for i := 0; i < 2*k; i++ {
		rec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		wantWarm := i >= k // second visit of each shard
		if rec.Warm != wantWarm {
			t.Fatalf("tick %d warm=%v, want %v", i, rec.Warm, wantWarm)
		}
		if rec.LPBound <= 0 {
			t.Fatalf("tick %d has no LP bound: %+v", i, rec)
		}
	}
	d.ResetWarm()
	rec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Warm {
		t.Fatal("tick after ResetWarm still reused a basis")
	}
}

// TestDaemonValidation covers Config rejection paths.
func TestDaemonValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil instance accepted")
	}
	ins, old := buildInstance(t, 5)
	bad := []Config{
		{Instance: ins, Initial: old, Lambda: -1},
		{Instance: ins, Initial: old, PlanDemand: []float64{1, 2}},
		{Instance: ins, Initial: placement.NewPlacement([]int{99, 0, 0, 0})},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	d, err := New(Config{Instance: ins, Initial: old, Shards: 99})
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != ins.Sys.Universe() {
		t.Fatalf("shards not clamped to universe: %d", d.Shards())
	}
	if err := d.SetLambda(-2); err == nil {
		t.Fatal("negative lambda accepted by SetLambda")
	}
	if err := d.SetLambda(3); err != nil || d.Lambda() != 3 {
		t.Fatalf("SetLambda(3): err=%v lambda=%v", err, d.Lambda())
	}
}

// TestDaemonHTTP round-trips the control+status API over a real listener.
func TestDaemonHTTP(t *testing.T) {
	d := newDaemon(t, 21, Config{Shards: 2, Lambda: 0.5, AlwaysReplan: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := d.Serve(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
	postJSON := func(path string, body any, into any) *http.Response {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp
	}

	// Ingest a skewed workload over HTTP.
	obsBody := make([]observeReq, 0, 40)
	for i := 0; i < 40; i++ {
		obsBody = append(obsBody, observeReq{At: 0.1 * float64(i), Client: i % 2, Nodes: []int{i % 4}})
	}
	var ingested map[string]int
	if resp := postJSON("/observe", obsBody, &ingested); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /observe: %s", resp.Status)
	}
	if ingested["ingested"] != 40 {
		t.Fatalf("ingested %d, want 40", ingested["ingested"])
	}

	// Drive a tick and read it back.
	var rec TickRecord
	if resp := postJSON("/tick", nil, &rec); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /tick: %s", resp.Status)
	}
	if rec.Seq != 0 || rec.Shard != 0 {
		t.Fatalf("first tick over HTTP: %+v", rec)
	}

	var st Status
	getJSON("/status", &st)
	if st.Ticks != 1 || st.Shards != 2 || st.Lambda != 0.5 {
		t.Fatalf("status: %+v", st)
	}
	if st.LastTickSeconds <= 0 {
		t.Fatalf("status has no tick latency: %+v", st)
	}

	var pd PlacementDoc
	getJSON("/placement", &pd)
	if !reflect.DeepEqual(pd.Nodes, d.Placement().Map()) {
		t.Fatalf("placement doc %v != %v", pd.Nodes, d.Placement().Map())
	}

	var drift heat.DriftReport
	getJSON("/drift", &drift)
	if drift.LiveWeight <= 0 {
		t.Fatalf("drift report empty after ingest: %+v", drift)
	}

	var ticks []TickRecord
	getJSON("/ticks", &ticks)
	if len(ticks) != 1 || !reflect.DeepEqual(ticks[0].Moves, rec.Moves) {
		t.Fatalf("ticks doc: %+v", ticks)
	}
	postJSON("/tick", nil, nil)
	getJSON("/ticks?last=1", &ticks)
	if len(ticks) != 1 || ticks[0].Seq != 1 {
		t.Fatalf("ticks?last=1: %+v", ticks)
	}

	var lam map[string]float64
	if resp := postJSON("/lambda", map[string]float64{"lambda": 2}, &lam); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /lambda: %s", resp.Status)
	}
	if d.Lambda() != 2 {
		t.Fatalf("lambda not applied: %v", d.Lambda())
	}
	if resp := postJSON("/lambda", map[string]float64{"lambda": -1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative lambda over HTTP: %s", resp.Status)
	}

	// Wrong methods are rejected.
	if resp, err := http.Get(base + "/tick"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /tick: %s", resp.Status)
		}
	}
	if resp := postJSON("/status", nil, nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /status: %s", resp.Status)
	}
}

// TestObserveRejectsOutsideInput pins that Observe records nothing from an
// access whose client or node index lies outside [0, n) or whose time is
// not finite and non-negative.
func TestObserveRejectsOutsideInput(t *testing.T) {
	d := newDaemon(t, 7, Config{})
	n := d.ins.M.N()
	bad := []struct {
		at     float64
		client int
		nodes  []int
	}{
		{0.5, n, nil},
		{0.5, -1, nil},
		{0.5, 0, []int{1, n}},
		{0.5, 0, []int{-1}},
		{-1, 0, nil},
		{math.NaN(), 0, nil},
		{math.Inf(1), 0, nil},
		{1e300, 0, nil},
	}
	for _, b := range bad {
		if err := d.Observe(b.at, b.client, b.nodes); err == nil {
			t.Errorf("Observe(%v, %d, %v) accepted", b.at, b.client, b.nodes)
		}
	}
	if got := d.sketch.Accesses(); got != 0 {
		t.Fatalf("rejected observations recorded %d accesses", got)
	}
	if got := len(d.sketch.ClientTotals()) + len(d.sketch.NodeTotals()); got != 0 {
		t.Fatalf("rejected observations grew the sketch to %d slots", got)
	}
	if err := d.Observe(0.5, n-1, []int{0, n - 1}); err != nil {
		t.Fatalf("valid observation rejected: %v", err)
	}
	if d.sketch.Accesses() != 1 || d.sketch.Messages() != 2 {
		t.Fatalf("valid observation: %d accesses, %d messages", d.sketch.Accesses(), d.sketch.Messages())
	}
}

// TestObserveHTTPRejectsBadBatch pins POST /observe's all-or-nothing
// contract: one bad entry answers 400 naming it and ingests nothing.
func TestObserveHTTPRejectsBadBatch(t *testing.T) {
	d := newDaemon(t, 7, Config{})
	n := d.ins.M.N()
	post := func(batch []observeReq) *httptest.ResponseRecorder {
		t.Helper()
		b, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		d.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/observe", bytes.NewReader(b)))
		return w
	}
	for _, batch := range [][]observeReq{
		{{At: 0.1, Client: 0}, {At: 0.2, Client: n}, {At: 0.3, Client: 1}},
		{{At: 0.1, Client: 0}, {At: 0.2, Client: 1, Nodes: []int{n}}},
		{{At: 0.1, Client: 0}, {At: -0.2, Client: 1}},
	} {
		w := post(batch)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("bad batch %+v: status %d, want 400", batch, w.Code)
		}
		if !strings.Contains(w.Body.String(), "entry 1") {
			t.Fatalf("bad batch: error %q does not name entry 1", w.Body.String())
		}
	}
	if got := d.sketch.Accesses(); got != 0 {
		t.Fatalf("rejected batches ingested %d accesses", got)
	}
	w := post([]observeReq{{At: 0.1, Client: 0, Nodes: []int{1}}, {At: 0.2, Client: n - 1}})
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ingested": 2`) {
		t.Fatalf("valid batch: status %d body %q", w.Code, w.Body.String())
	}
	if d.sketch.Accesses() != 2 {
		t.Fatalf("valid batch ingested %d accesses, want 2", d.sketch.Accesses())
	}
}
