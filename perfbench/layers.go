package main

// layerInputs is what a workload measured in its traced window, joined
// per operation where the seams share a request ID.
type layerInputs struct {
	traced, base *windowStats
	p            *probe

	routerSelfMs   []float64 // router handler minus replica handler time
	handlerMs      []float64 // replica handler time
	stages         []*stages // server stage breakdown of each success
	unattributedMs []float64 // handler (or Submit) time minus the stage sum
	shed, expired  int       // client-visible 429s and 504s

	submitMs, preSubmitMs, cachedMs []float64
	dedupRatio, dropRatio           float64

	e2eUnattributedMs []float64 // client latency minus the outermost server seam
	realtimeMs        []float64 // realtime-class latency, nil without that class

	flopsPerImg float64 // model IR FLOPs of one forward image
}

// layerMetrics derives every per-layer metric in catalog order. A layer
// that does no work on the workload reports 0 with a note.
func (in *layerInputs) layerMetrics() *metrics {
	m := newMetrics()
	p := in.p
	p.mu.Lock()
	defer p.mu.Unlock()

	m.pct("serve.router.self_ms_p50", in.routerSelfMs, 50, "ms")
	m.pct("serve.router.self_ms_p99", in.routerSelfMs, 99, "ms")
	replicaCalls, maxCalls := 0, 0
	for _, n := range p.replicaCalls {
		replicaCalls += n
		maxCalls = max(maxCalls, n)
	}
	m.ratio("serve.router.attempts_per_req", float64(replicaCalls), float64(p.routerCalls), "count", p.routerCalls)
	m.ratio("serve.router.max_replica_share", float64(maxCalls), float64(replicaCalls), "ratio", replicaCalls)

	var admit, queue, assembly, batch []float64
	for _, s := range in.stages {
		admit = append(admit, s.admit)
		queue = append(queue, s.queue)
		assembly = append(assembly, s.assembly)
		batch = append(batch, float64(s.batch))
	}
	m.pct("serve.handler_ms_p50", in.handlerMs, 50, "ms")
	m.pct("serve.admit_ms_p50", admit, 50, "ms")
	m.pct("serve.unattributed_ms_p50", in.unattributedMs, 50, "ms")
	m.pct("serve.queue_ms_p50", queue, 50, "ms")
	m.pct("serve.queue_ms_p99", queue, 99, "ms")
	m.pct("serve.assembly_ms_p50", assembly, 50, "ms")
	m.set("serve.batch_size_mean", mean(batch), "img", len(batch))
	m.set("serve.shed_429", float64(in.shed), "count", 0)
	m.set("serve.expired_504", float64(in.expired), "count", 0)

	sumPre := 0.0
	for _, ms := range p.preprocMs {
		sumPre += ms
	}
	m.ratio("preprocess.ms_per_img", sumPre, float64(p.preprocImgs), "ms", p.preprocImgs)
	m.pct("preprocess.call_ms_p95", p.preprocMs, 95, "ms")
	m.set("preprocess.images", float64(p.preprocImgs), "count", 0)
	m.set("preprocess.failed", float64(p.preprocFailed), "count", 0)

	m.ratio("engine.ms_per_img", p.forwardMs, float64(p.forwardImgs), "ms", p.forwardImgs)
	m.ratio("engine.gflops", in.flopsPerImg*float64(p.forwardImgs)/1e9, p.forwardMs/1000, "GFLOP/s", p.forwardImgs)
	m.ratio("engine.batch_mean", float64(p.forwardImgs), float64(p.forwardCalls), "img", p.forwardCalls)
	m.ratio("engine.busy_share", p.forwardMs, in.traced.w.seconds()*1000, "ratio", p.forwardCalls)
	m.set("engine.failed", float64(p.forwardFailed), "count", 0)

	m.set("stream.dedup_hit_ratio", in.dedupRatio, "ratio", 0)
	m.set("stream.drop_ratio", in.dropRatio, "ratio", 0)
	m.pct("stream.submit_ms_p50", in.submitMs, 50, "ms")
	m.pct("stream.pre_submit_ms_p50", in.preSubmitMs, 50, "ms")
	m.pct("stream.cached_ms_p50", in.cachedMs, 50, "ms")

	t := in.traced
	mb, me := &t.use.begin.mem, &t.use.end.mem
	m.ratio("runtime.alloc_kb_per_img", float64(me.TotalAlloc-mb.TotalAlloc)/1024, float64(t.images), "KiB", t.images)
	m.ratio("runtime.gc_cycles_per_kimg", float64(me.NumGC-mb.NumGC)*1000, float64(t.images), "count", t.images)
	m.set("runtime.heap_inuse_mb", float64(me.HeapInuse)/(1<<20), "MiB", 1)

	m.pct("gen.lag_ms_p99", t.lagMs, 99, "ms")
	m.pct("e2e.unattributed_ms_p50", in.e2eUnattributedMs, 50, "ms")
	m.pct("e2e.realtime_p99_ms", in.realtimeMs, 99, "ms")

	m.diff("trace.overhead_latency_p50_ms", t.latMs, in.base.latMs)
	m.set("trace.overhead_cpu_ms_per_img", t.cpuMsPerImg()-in.base.cpuMsPerImg(), "ms", in.base.images)
	return m
}

// ratio sets num/den, or 0 with a note when the layer did no work.
func (m *metrics) ratio(name string, num, den float64, unit string, n int) {
	if den == 0 {
		m.set(name, 0, unit, n)
		m.note(name, "no work on this workload")
		return
	}
	m.set(name, num/den, unit, n)
}

// diff sets the difference of two medians. The untraced baseline of a
// traced run may hold too few samples for the percentile rule; the
// difference is then still the best estimate of the overhead, so plain
// medians are used, with the baseline's count.
func (m *metrics) diff(name string, traced, base []float64) {
	m.set(name, median(traced)-median(base), "ms", len(base))
}

// splitWindows returns a traced run's untraced baseline and traced
// windows.
func splitWindows(ws []*windowStats) (base, traced *windowStats) {
	for _, w := range ws {
		if w.w.traced {
			traced = w
		} else {
			base = w
		}
	}
	return base, traced
}
