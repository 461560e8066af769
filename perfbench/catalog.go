package main

// metricSpec declares one reported metric, as BENCHMARK.json lists it.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEndSpecs are the metrics an untraced run reports, on every
// workload.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_img_s", "img/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"slo_attainment", "ratio", "higher"},
	{"cpu_ms_per_img", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
}

// layerMapping is one per-layer metric with the end-to-end metrics it
// should move and the workloads it moves them on. On every other
// workload the prediction is no change.
type layerMapping struct {
	Metric string   `json:"-"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Moves  []string `json:"moves"`
	On     []string `json:"on"`
}

const (
	wOnline  = "online-mixed"
	wCamera  = "camera-stream"
	wOffline = "offline-real"
)

var all = []string{wOnline, wCamera, wOffline}

// layerSpecs are the metrics a traced run reports, on every workload;
// a layer that does no work on a workload reports 0.
var layerSpecs = []layerMapping{
	{"serve.router.self_ms_p50", "ms", "lower", []string{"latency_p50_ms", "cpu_ms_per_img"}, []string{wOnline}},
	{"serve.router.self_ms_p99", "ms", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"serve.router.attempts_per_req", "count", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"serve.router.max_replica_share", "ratio", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"serve.handler_ms_p50", "ms", "lower", []string{"latency_p50_ms", "cpu_ms_per_img"}, []string{wOnline}},
	{"serve.admit_ms_p50", "ms", "lower", []string{"latency_p50_ms", "cpu_ms_per_img"}, []string{wOnline}},
	{"serve.unattributed_ms_p50", "ms", "lower", []string{"latency_p50_ms", "cpu_ms_per_img"}, []string{wOnline}},
	{"serve.queue_ms_p50", "ms", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"serve.queue_ms_p99", "ms", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"serve.assembly_ms_p50", "ms", "lower", []string{"latency_p50_ms"}, []string{wCamera}},
	{"serve.batch_size_mean", "img", "higher", []string{"cpu_ms_per_img", "slo_attainment", "throughput_img_s"}, []string{wOnline, wOffline}},
	{"serve.shed_429", "count", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"serve.expired_504", "count", "lower", []string{"slo_attainment"}, []string{wOnline}},
	{"preprocess.ms_per_img", "ms", "lower", []string{"latency_p50_ms", "cpu_ms_per_img", "slo_attainment"}, []string{wCamera}},
	{"preprocess.call_ms_p95", "ms", "lower", []string{"slo_attainment"}, []string{wCamera}},
	{"preprocess.images", "count", "higher", []string{"cpu_ms_per_img"}, []string{wCamera}},
	{"preprocess.failed", "count", "lower", []string{"slo_attainment"}, []string{wCamera}},
	{"engine.ms_per_img", "ms", "lower", []string{"throughput_img_s", "latency_p50_ms"}, []string{wOffline}},
	{"engine.gflops", "GFLOP/s", "higher", []string{"throughput_img_s", "latency_p50_ms"}, []string{wOffline}},
	{"engine.batch_mean", "img", "higher", []string{"throughput_img_s"}, []string{wOffline}},
	{"engine.busy_share", "ratio", "higher", []string{"throughput_img_s"}, []string{wOffline}},
	{"engine.failed", "count", "lower", []string{"slo_attainment"}, []string{wOffline}},
	{"stream.dedup_hit_ratio", "ratio", "higher", []string{"cpu_ms_per_img", "slo_attainment"}, []string{wCamera}},
	{"stream.drop_ratio", "ratio", "lower", []string{"slo_attainment"}, []string{wCamera}},
	{"stream.submit_ms_p50", "ms", "lower", []string{"latency_p50_ms"}, []string{wCamera}},
	{"stream.pre_submit_ms_p50", "ms", "lower", []string{"latency_p50_ms"}, []string{wCamera}},
	{"stream.cached_ms_p50", "ms", "lower", []string{"latency_p50_ms"}, []string{wCamera}},
	{"runtime.alloc_kb_per_img", "KiB", "lower", []string{"cpu_ms_per_img", "rss_peak_mb"}, all},
	{"runtime.gc_cycles_per_kimg", "count", "lower", []string{"cpu_ms_per_img"}, all},
	{"runtime.heap_inuse_mb", "MiB", "lower", []string{"rss_peak_mb"}, all},
	{"gen.lag_ms_p99", "ms", "lower", []string{"run validity"}, all},
	{"e2e.unattributed_ms_p50", "ms", "lower", []string{"run validity"}, all},
	{"e2e.realtime_p99_ms", "ms", "lower", []string{"slo_attainment"}, []string{wOnline, wCamera}},
	{"trace.overhead_latency_p50_ms", "ms", "lower", []string{"run validity"}, all},
	{"trace.overhead_cpu_ms_per_img", "ms", "lower", []string{"run validity"}, all},
}
