package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"harvest/internal/metrics"
	"harvest/internal/serve"
)

// Handler serves the streaming ingest API:
//
//	POST /v2/streams/{camera}?model=NAME&budget_ms=16.7
//
// The request body is a long-lived NDJSON stream of Frame lines; the
// chunked response carries one Outcome line per frame (completion
// order, not arrival order — a dropped frame's outcome beats a served
// one that is still computing) and a final Summary line when the
// camera closes its side. The response headers flush immediately so
// the client can stream against a live connection.
func (ing *Ingest) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/streams/{camera}", ing.handleStream)
	return mux
}

func (ing *Ingest) handleStream(w http.ResponseWriter, r *http.Request) {
	camera := r.PathValue("camera")
	if camera == "" {
		http.Error(w, "stream: camera id required", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "stream: response writer cannot stream", http.StatusInternalServerError)
		return
	}
	// The session interleaves reads (frames) with writes (outcomes) on
	// one HTTP/1 exchange. Without full duplex the server would drain
	// the request body — endless, for a live camera — before letting
	// the first outcome out.
	if err := http.NewResponseController(w).EnableFullDuplex(); err != nil {
		http.Error(w, "stream: full-duplex unsupported: "+err.Error(), http.StatusInternalServerError)
		return
	}
	var budget time.Duration
	if s := r.URL.Query().Get("budget_ms"); s != "" {
		var ms float64
		if _, err := fmt.Sscanf(s, "%g", &ms); err != nil || ms <= 0 {
			http.Error(w, "stream: invalid budget_ms", http.StatusBadRequest)
			return
		}
		budget = time.Duration(ms * float64(time.Millisecond))
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = r.Header.Get(serve.TenantHeader)
	}
	sess, err := ing.Open(camera, r.URL.Query().Get("model"), tenant, budget)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), ErrSessionActive.Error()) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	defer sess.Close()
	w.Header().Set(serve.TenantHeader, sess.Tenant)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// Outcomes complete on arbitrary goroutines; serialize the writes.
	var emitMu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(o Outcome) {
		emitMu.Lock()
		defer emitMu.Unlock()
		if enc.Encode(o) == nil {
			flusher.Flush()
		}
	}

	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64<<10), ing.cfg.maxFrameBytes())
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			emit(Outcome{Outcome: OutcomeFailed, Error: "bad frame: " + err.Error()})
			continue
		}
		sess.HandleFrame(r.Context(), f, emit)
	}
	// The client's side of the stream is over (EOF, or a mid-stream
	// disconnect surfaced as a body read error): release the camera ID
	// *before* draining in-flight completions, so a reconnecting camera
	// is not refused with 409 while a queued frame finishes elsewhere.
	sess.detach()
	// Drain in-flight completions, then close the stream with the
	// session's accounting.
	sess.wg.Wait()
	if err := sc.Err(); err != nil && err != io.ErrUnexpectedEOF {
		emit(Outcome{Outcome: OutcomeFailed, Error: "read: " + err.Error()})
	}
	emitMu.Lock()
	defer emitMu.Unlock()
	enc.Encode(struct {
		Summary Summary `json:"summary"`
	}{sess.Summary()})
	flusher.Flush()
}

// MetricsExtension names the ingest tier's block under "extensions" in
// GET /v2/metrics; its families join the server's GET /metrics.
const MetricsExtension = "stream"

func init() { serve.RegisterMetricsExtension[MetricsSnapshot](MetricsExtension) }

// MetricsSnapshot is the ingest tier's aggregate accounting, exported
// as the MetricsExtension block and merged across replicas by a router.
type MetricsSnapshot struct {
	ActiveSessions int   `json:"active_sessions" prom:"harvest_stream_active_sessions,gauge,Live camera ingest sessions."`
	Frames         int64 `json:"frames" prom:"harvest_stream_frames_total,counter,Frames received across all camera sessions."`
	ServedEdge     int64 `json:"served_edge" prom:"harvest_stream_served_edge_total,counter,Frames served by the local edge tier."`
	ServedCloud    int64 `json:"served_cloud" prom:"harvest_stream_served_cloud_total,counter,Frames offloaded to and served by the cloud tier."`
	DedupHits      int64 `json:"dedup_hits" prom:"harvest_stream_dedup_hits_total,counter,Frames answered from the temporal dedup cache."`
	Dropped        int64 `json:"dropped" prom:"harvest_stream_frames_dropped_total,counter,Frames dropped at admission by the drop-stale gate."`
	RejectedOrder  int64 `json:"rejected_order" prom:"harvest_stream_rejected_order_total,counter,Frames rejected for out-of-order sequence numbers."`
	Failed         int64 `json:"failed" prom:"harvest_stream_failed_total,counter,Admitted frames that failed to serve."`
	// E2E is frame receipt → outcome latency for served and cached
	// frames.
	E2E metrics.HistogramSnapshot `json:"e2e_ms" prom:"harvest_stream_e2e_latency_seconds,histogram,Frame receipt to outcome latency (served and cached frames)."`
	// Uplink is the modeled upload cost of cloud-shipped frames.
	Uplink metrics.HistogramSnapshot `json:"uplink_ms" prom:"harvest_stream_uplink_latency_seconds,histogram,Modeled edge-to-cloud upload time of offloaded frames."`
	// Tenants decomposes session/frame volume per tenant.
	Tenants map[string]TenantStreamStats `json:"tenants,omitempty" label:"tenant"`
}

// Metrics snapshots the ingest metrics.
func (ing *Ingest) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		ActiveSessions: ing.ActiveSessions(),
		Frames:         ing.met.frames.Load(),
		ServedEdge:     ing.met.servedEdge.Load(),
		ServedCloud:    ing.met.servedCloud.Load(),
		DedupHits:      ing.met.dedupHits.Load(),
		Dropped:        ing.met.dropped.Load(),
		RejectedOrder:  ing.met.rejectedOrder.Load(),
		Failed:         ing.met.failed.Load(),
		E2E:            ing.met.e2e.Snapshot(),
		Uplink:         ing.met.uplink.Snapshot(),
		Tenants:        ing.TenantStats(),
	}
}
