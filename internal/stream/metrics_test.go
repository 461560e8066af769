package stream_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"harvest/internal/core"
	"harvest/internal/imaging"
	"harvest/internal/metrics"
	"harvest/internal/serve"
	"harvest/internal/stream"
)

// streamReplica is one stream-enabled replica: a serving deployment
// with an ingest tier exporting its metrics block, behind one listener.
type streamReplica struct {
	ing *stream.Ingest
	hs  *httptest.Server
}

func newStreamReplica(t *testing.T) streamReplica {
	t.Helper()
	srv, err := core.NewDeployment(core.DeploymentConfig{
		Platform: "Jetson", Models: []string{"ViT_Tiny"},
		QueueDelay: time.Millisecond, Preproc: "cpu",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ing := newIngest(t, stream.Config{Model: "ViT_Tiny", Local: srv, Budget: 5 * time.Second})
	srv.AddMetricsExtension(stream.MetricsExtension, func() any { return ing.Metrics() })
	mux := http.NewServeMux()
	mux.Handle("/v2/streams/", ing.Handler())
	mux.Handle("/", srv.Handler())
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return streamReplica{ing: ing, hs: hs}
}

// streamFrames runs one camera session of n distinct frames to the
// replica at url and waits for its summary.
func streamFrames(t *testing.T, url, camera, tenant string, n int) {
	t.Helper()
	sess, err := stream.DialSession(context.Background(), http.DefaultClient, url, camera, "", tenant, 0)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range sess.Outcomes() {
		}
	}()
	for i := 1; i <= n; i++ {
		img := frameBytes(t, imaging.KindRows, uint64(100*i), 48)
		if err := sess.Send(stream.Frame{Seq: int64(i), Image: img, Format: "ppm"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.CloseSend(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, rec.Code)
	}
	return rec.Body.String()
}

// TestRouterMergesStreamIngestMetrics puts a router in front of two
// stream-enabled replicas: its view of the ingest block must be the
// sum of the replicas', in JSON and in the Prometheus exposition.
func TestRouterMergesStreamIngestMetrics(t *testing.T) {
	a, b := newStreamReplica(t), newStreamReplica(t)
	streamFrames(t, a.hs.URL, "cam-a", "farm-a", 2)
	streamFrames(t, b.hs.URL, "cam-b", "farm-b", 3)
	streamFrames(t, b.hs.URL, "cam-c", "farm-a", 1)

	router, err := serve.NewRouter([]string{a.hs.URL, b.hs.URL}, serve.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ma, mb := a.ing.Metrics(), b.ing.Metrics()
	agg, ok := router.Metrics(context.Background()).Extensions[stream.MetricsExtension].(*stream.MetricsSnapshot)
	if !ok {
		t.Fatal("router metrics carry no stream block")
	}
	if agg.Frames != ma.Frames+mb.Frames || agg.Frames != 6 {
		t.Errorf("router frames %d, replicas %d + %d", agg.Frames, ma.Frames, mb.Frames)
	}
	if agg.ServedEdge+agg.DedupHits != ma.ServedEdge+ma.DedupHits+mb.ServedEdge+mb.DedupHits {
		t.Errorf("router served %+v, replicas %+v and %+v", agg, ma, mb)
	}
	if agg.E2E.Count != ma.E2E.Count+mb.E2E.Count || agg.E2E.Max != max(ma.E2E.Max, mb.E2E.Max) {
		t.Errorf("router e2e histogram %d obs max %v; replicas %d and %d", agg.E2E.Count, agg.E2E.Max, ma.E2E.Count, mb.E2E.Count)
	}
	if got := agg.Tenants["farm-a"]; got.Frames != 3 || got.Sessions != 2 {
		t.Errorf("router tenant farm-a %+v, want 3 frames over 2 sessions", got)
	}

	prom := get(t, router.Handler(), "/metrics")
	if err := metrics.LintExposition(prom); err != nil {
		t.Errorf("router exposition lint: %v", err)
	}
	for _, want := range []string{
		"harvest_stream_frames_total 6\n",
		`harvest_stream_tenant_frames_total{tenant="farm-a"} 3`,
		"harvest_stream_e2e_latency_seconds_count 6\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
}

// TestStreamMetricsExposition pins the replica-side surfaces of the
// ingest block: the shared latency summary in JSON, and histogram and
// labeled tenant families in a lint-clean exposition.
func TestStreamMetricsExposition(t *testing.T) {
	r := newStreamReplica(t)
	streamFrames(t, r.hs.URL, "cam-1", "farm-a", 2)

	resp, err := http.Get(r.hs.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var wire struct {
		Extensions map[string]struct {
			E2E    map[string]any `json:"e2e_ms"`
			Uplink map[string]any `json:"uplink_ms"`
		} `json:"extensions"`
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		t.Fatal(err)
	}
	e2e := wire.Extensions[stream.MetricsExtension].E2E
	if e2e["count"] != 2.0 || e2e["p99_ms"] == nil || len(e2e["buckets"].([]any)) != metrics.NumLatencyBuckets {
		t.Errorf("stream e2e_ms is not the shared latency summary: %v", e2e)
	}
	if up := wire.Extensions[stream.MetricsExtension].Uplink; up["count"] != 0.0 {
		t.Errorf("stream uplink_ms %v, want an empty summary", up)
	}

	prom := get(t, r.hs.Config.Handler, "/metrics")
	if err := metrics.LintExposition(prom); err != nil {
		t.Errorf("stream exposition lint: %v", err)
	}
	for _, want := range []string{
		"# TYPE harvest_stream_e2e_latency_seconds histogram",
		"harvest_stream_e2e_latency_seconds_count 2\n",
		"# TYPE harvest_stream_uplink_latency_seconds histogram",
		`harvest_stream_tenant_frames_total{tenant="farm-a"} 2`,
		`harvest_stream_tenant_served_total{tenant="farm-a"} 2`,
		"harvest_stream_frames_total 2\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("stream exposition missing %q", want)
		}
	}
	if strings.Contains(prom, "_p99_ms") {
		t.Error("exposition still carries the p99 gauges the histograms replace")
	}
}
