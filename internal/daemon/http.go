package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"quorumplace/internal/obs/export"
)

// Status is the GET /status document: a control-plane summary of the
// daemon's live state.
type Status struct {
	Shards          int     `json:"shards"`
	NextShard       int     `json:"next_shard"`
	Lambda          float64 `json:"lambda"`
	Ticks           int     `json:"ticks"`
	Now             float64 `json:"now"` // virtual time
	DriftTV         float64 `json:"drift_tv"`
	LiveWeight      float64 `json:"live_weight"`
	PendingShards   int     `json:"pending_shards"` // shards left in the active re-plan cycle
	LastTickSeconds float64 `json:"last_tick_seconds"`
	AvgDelay        float64 `json:"avg_delay"` // from the latest tick, 0 before the first
}

// PlacementDoc is the GET /placement document.
type PlacementDoc struct {
	Nodes []int `json:"nodes"` // element → node
}

// observeReq is one POST /observe body entry.
type observeReq struct {
	At     float64 `json:"at"`
	Client int     `json:"client"`
	Nodes  []int   `json:"nodes"`
}

// Status assembles the control-plane summary.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Status{
		Shards:          len(d.shards),
		NextShard:       d.next,
		Lambda:          d.lambda,
		Ticks:           len(d.ticks),
		Now:             d.now(),
		PendingShards:   d.cycleLeft,
		LastTickSeconds: d.lastTickSec,
	}
	if rep, err := d.sketch.RecentDrift(d.planDemand); err == nil {
		st.DriftTV, st.LiveWeight = rep.TV, rep.LiveWeight
	}
	if n := len(d.ticks); n > 0 {
		st.AvgDelay = d.ticks[n-1].AvgDelay
	}
	return st
}

// Handler returns the daemon's HTTP control+status API:
//
//	GET  /status     control-plane summary (Status)
//	GET  /placement  current placement (PlacementDoc)
//	GET  /drift      recent-drift report (heat.DriftReport)
//	GET  /ticks      tick log ([]TickRecord), ?last=N for a suffix
//	POST /tick       run one tick, respond with its TickRecord
//	POST /lambda     {"lambda": x} retune the movement weight
//	POST /observe    [{"at":t,"client":u,"nodes":[...]}, ...] ingest accesses
//	                 (all or none: 400 names the first invalid entry)
//	GET  /metrics    Prometheus text exposition (internal/obs/export)
//	GET  /metrics.json
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", export.Handler(export.ActiveSource()))
	mux.Handle("/metrics.json", export.Handler(export.ActiveSource()))

	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, d.Status())
	})
	mux.HandleFunc("/placement", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, PlacementDoc{Nodes: d.Placement().Map()})
	})
	mux.HandleFunc("/drift", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		rep, err := d.Drift()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/ticks", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodGet) {
			return
		}
		ticks := d.Ticks()
		if s := r.URL.Query().Get("last"); s != "" {
			var n int
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 0 {
				http.Error(w, "last must be a non-negative integer", http.StatusBadRequest)
				return
			}
			if n < len(ticks) {
				ticks = ticks[len(ticks)-n:]
			}
		}
		writeJSON(w, ticks)
	})
	mux.HandleFunc("/tick", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		rec, err := d.Tick()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rec)
	})
	mux.HandleFunc("/lambda", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		var body struct {
			Lambda float64 `json:"lambda"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.SetLambda(body.Lambda); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]float64{"lambda": body.Lambda})
	})
	mux.HandleFunc("/observe", func(w http.ResponseWriter, r *http.Request) {
		if !allowMethod(w, r, http.MethodPost) {
			return
		}
		var body []observeReq
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.observeBatch(body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]int{"ingested": len(body)})
	})
	return mux
}

// Serve binds addr (port 0 picks a free port) and serves the control API
// until the returned server is closed or ctx is cancelled. The underlying
// export.Server drains in-flight requests on Close.
func (d *Daemon) Serve(ctx context.Context, addr string) (*export.Server, error) {
	return export.ServeHandler(ctx, addr, d.Handler())
}

func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
