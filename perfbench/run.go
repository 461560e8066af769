package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// warmup precedes the measured windows: connections open, pools and
// heaps grow, and its operations are excluded from every metric.
const warmup = 2 * time.Second

// A run stands its stack up at least minSetups times and until
// setupBudget has passed (at most maxSetups); setup_s is the median. A
// stack that comes up in a millisecond is so timed dozens of times.
const (
	minSetups   = 5
	maxSetups   = 101
	setupBudget = time.Second
)

// window is one measured span of a run, as offsets from its start. A
// traced run measures an untraced window (the overhead baseline) and
// then a traced one.
type window struct {
	from, to time.Duration
	traced   bool
}

func (w window) contains(at time.Duration) bool { return at >= w.from && at < w.to }

func (w window) seconds() float64 { return (w.to - w.from).Seconds() }

// parts is how many equal windows an untraced run's measurement is cut
// into. Each open-loop CPU and SLO metric is the median over the parts,
// so one transient stall on a shared host moves neither.
const parts = 5

// windows lays out a run: untraced runs cut the measurement into parts
// consecutive windows; traced runs give the first fifth of it to an
// untraced baseline and the rest to one traced window, which so holds
// enough samples for the per-layer tails.
func windows(o options) []window {
	part := o.seconds / parts
	if o.trace {
		return []window{{from: warmup, to: warmup + part}, {from: warmup + part, to: warmup + o.seconds, traced: true}}
	}
	var ws []window
	for i := time.Duration(0); i < parts; i++ {
		ws = append(ws, window{from: warmup + i*part, to: warmup + (i+1)*part})
	}
	return ws
}

// usage is the process's resource use at one instant.
type usage struct {
	cpu time.Duration
	mem runtime.MemStats
}

func sample() usage {
	u := usage{cpu: cpuTime()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// span is what a window used: CPU and allocation between its bounds.
type span struct {
	begin, end usage
}

// drive walks the windows on the wall clock from start, sampling
// resource use at each bound and switching the probe on for traced
// windows. It returns when the last window ends.
func drive(ctx context.Context, start time.Time, wins []window, p *probe) ([]span, error) {
	spans := make([]span, len(wins))
	for i, w := range wins {
		if err := sleepUntil(ctx, start.Add(w.from)); err != nil {
			return nil, err
		}
		spans[i].begin = sample()
		p.on.Store(w.traced)
		if err := sleepUntil(ctx, start.Add(w.to)); err != nil {
			return nil, err
		}
		p.on.Store(false)
		spans[i].end = sample()
	}
	return spans, nil
}

func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// timeSetups stands a stack up repeatedly, closing all but the last,
// and returns the last with every set-up time in seconds.
func timeSetups[S any](up func() (S, error), down func(S)) (S, []float64, error) {
	var s S
	var times []float64
	begin := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < setupBudget); i++ {
		if i > 0 {
			down(s)
		}
		// Each stand-up starts from a collected heap, as in a fresh
		// process, not amid the last one's garbage.
		runtime.GC()
		t := time.Now()
		var err error
		if s, err = up(); err != nil {
			return s, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return s, times, nil
}

// listen serves h on a loopback port until the returned stop is called.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// stopAll runs stop functions in reverse order.
func stopAll(stops []func()) {
	for i := len(stops) - 1; i >= 0; i-- {
		stops[i]()
	}
}

// windowStats aggregates one window's operations.
type windowStats struct {
	w         window
	use       span
	attempted int
	succeeded int
	sloMet    int
	images    int       // images or frames completed successfully
	latMs     []float64 // intended send → reply, successful operations
	lagMs     []float64 // generator lateness
	outcomes  [numOutcomes]int
	byClass   map[string]*classStats
	// doneAt holds the completion times of a closed loop or a camera
	// stream; its throughput is measured between the first and last
	// completion, not over the window, whose edges would cut an image
	// in two (closed loop) or count the offered frame rate (stream).
	doneAt []time.Duration
}

// classStats is one class's share of a window.
type classStats struct {
	attempted, succeeded, sloMet int
	outcomes                     [numOutcomes]int
	latMs                        []float64
}

func newWindowStats(w window, use span) *windowStats {
	return &windowStats{w: w, use: use, byClass: map[string]*classStats{}}
}

// add folds one operation into the window.
func (ws *windowStats) add(class string, o outcome, images int, latMs, lagMs float64, slo time.Duration) {
	cs := ws.byClass[class]
	if cs == nil {
		cs = &classStats{}
		ws.byClass[class] = cs
	}
	ws.attempted++
	cs.attempted++
	ws.outcomes[o]++
	cs.outcomes[o]++
	ws.lagMs = append(ws.lagMs, lagMs)
	if !o.succeeded() {
		return
	}
	ws.succeeded++
	cs.succeeded++
	ws.images += images
	ws.latMs = append(ws.latMs, latMs)
	cs.latMs = append(cs.latMs, latMs)
	if latMs <= float64(slo)/float64(time.Millisecond) {
		ws.sloMet++
		cs.sloMet++
	}
}

func (ws *windowStats) cpuMsPerImg() float64 {
	if ws.images == 0 {
		return 0
	}
	return float64(ws.use.end.cpu-ws.use.begin.cpu) / float64(time.Millisecond) / float64(ws.images)
}

// endToEnd computes the end-to-end metrics of an untraced run's
// windows. latency_p50_ms is the median over classes of each class's
// median latency, so it does not jump between the modes of a mix (a
// cache hit and a served frame differ threefold). With byParts (open
// loop) CPU and SLO attainment are medians over the windows; otherwise
// (closed loop, too few operations per window) they come from the
// windows merged. A metric the windows cannot support is an error: the
// run is invalid, not reported.
func endToEnd(wins []*windowStats, setup []float64, byParts bool) (*metrics, error) {
	all := merge(wins)
	if !byParts {
		wins = []*windowStats{all}
	}
	var p50s []float64
	for name, cs := range all.byClass {
		p50, err := percentile(cs.latMs, 50)
		if err != nil {
			return nil, fmt.Errorf("latency_p50_ms of class %s: %w", name, err)
		}
		p50s = append(p50s, p50)
	}
	var cpus, slos []float64
	for _, ws := range wins {
		cpus = append(cpus, ws.cpuMsPerImg())
		slos = append(slos, float64(ws.sloMet)/float64(ws.attempted))
	}
	throughput := float64(all.images) / all.w.seconds()
	if n := len(all.doneAt); n > 1 {
		throughput = float64(n-1) / (slices.Max(all.doneAt) - slices.Min(all.doneAt)).Seconds()
	}
	m := newMetrics()
	// A handful of set-ups is below the percentile rule's sample
	// floor; their plain median is still the steadiest estimate.
	m.set("setup_s", median(setup), "s", len(setup))
	m.set("throughput_img_s", throughput, "img/s", all.images)
	m.set("latency_p50_ms", median(p50s), "ms", len(all.latMs))
	m.set("slo_attainment", median(slos), "ratio", all.attempted)
	m.set("cpu_ms_per_img", median(cpus), "ms", all.images)
	m.set("rss_peak_mb", peakRSSMB(), "MiB", 1)
	return m, nil
}

// merge folds consecutive windows into one spanning them all.
func merge(wins []*windowStats) *windowStats {
	first, last := wins[0], wins[len(wins)-1]
	all := newWindowStats(window{from: first.w.from, to: last.w.to, traced: first.w.traced},
		span{begin: first.use.begin, end: last.use.end})
	for _, ws := range wins {
		all.attempted += ws.attempted
		all.succeeded += ws.succeeded
		all.sloMet += ws.sloMet
		all.images += ws.images
		all.latMs = append(all.latMs, ws.latMs...)
		all.lagMs = append(all.lagMs, ws.lagMs...)
		all.doneAt = append(all.doneAt, ws.doneAt...)
		for o, n := range ws.outcomes {
			all.outcomes[o] += n
		}
		for name, cs := range ws.byClass {
			ac := all.byClass[name]
			if ac == nil {
				ac = &classStats{}
				all.byClass[name] = ac
			}
			ac.attempted += cs.attempted
			ac.succeeded += cs.succeeded
			ac.sloMet += cs.sloMet
			ac.latMs = append(ac.latMs, cs.latMs...)
			for o, n := range cs.outcomes {
				ac.outcomes[o] += n
			}
		}
	}
	return all
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// result is one run's outcome.
type result struct {
	opts      options
	correct   bool
	problems  []string // failed output checks
	attempted int
	failed    int
	e2e       *metrics // untraced window
	layer     *metrics // traced window (trace runs only)
	windows   []*windowStats
}

// check records a failed output check.
func (r *result) check(err error) {
	if err != nil {
		r.correct = false
		r.problems = append(r.problems, err.Error())
	}
}

// count folds the measured windows into attempted and failed.
func (r *result) count() {
	for _, ws := range r.windows {
		r.attempted += ws.attempted
		r.failed += ws.attempted - ws.succeeded
	}
}

// validate refuses a run whose open-loop generator's P99 lateness
// exceeds the workload's tightest latency limit: such a generator could
// not offer its load on schedule, so whether the system met its SLO is
// unknown. The run is invalid and reports nothing.
func (r *result) validate(maxLag time.Duration) error {
	lag, err := percentile(merge(r.windows).lagMs, 99)
	if err == nil && lag > durMs(maxLag) {
		return fmt.Errorf("invalid run: generator P99 lag %.2f ms exceeds %.1f ms", lag, durMs(maxLag))
	}
	return nil
}

// runRecord is the reproducibility record printed with every run.
type runRecord struct {
	Workload string                  `json:"workload"`
	Seed     uint64                  `json:"seed"`
	Seconds  float64                 `json:"seconds"`
	Trace    bool                    `json:"trace"`
	Host     host                    `json:"host"`
	Windows  []windowRecord          `json:"windows"`
	Metrics  map[string]metric       `json:"metrics"`
	Problems []string                `json:"problems,omitempty"`
	Layers   map[string]layerMapping `json:"layer_map,omitempty"`
}

// windowRecord is one window's counts, per workload and per class.
type windowRecord struct {
	From      float64                `json:"from_s"`
	To        float64                `json:"to_s"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Succeeded int                    `json:"succeeded"`
	Failed    int                    `json:"failed"`
	Outcomes  map[string]int         `json:"outcomes"`
	Classes   map[string]classRecord `json:"classes"`
}

type classRecord struct {
	Attempted int            `json:"attempted"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	SLOMet    int            `json:"slo_met"`
	Outcomes  map[string]int `json:"outcomes"`
	LatencyN  int            `json:"latency_n"`
	P50Ms     float64        `json:"latency_p50_ms,omitempty"`
	P99Ms     float64        `json:"latency_p99_ms,omitempty"`
}

func outcomeMap(c [numOutcomes]int) map[string]int {
	m := map[string]int{}
	for o, n := range c {
		if n > 0 {
			m[outcome(o).String()] = n
		}
	}
	return m
}

// write prints the human-readable report, the run record, and last the
// one-line result the benchmark contract asks for.
func (r *result) write(w io.Writer) error {
	out := r.e2e
	if r.opts.trace {
		out = r.layer
	}
	rec := runRecord{
		Workload: r.opts.workload, Seed: r.opts.seed, Seconds: r.opts.seconds.Seconds(),
		Trace: r.opts.trace, Host: fingerprint(), Metrics: map[string]metric{},
		Problems: r.problems,
	}
	for _, ws := range r.windows {
		wr := windowRecord{
			From: ws.w.from.Seconds(), To: ws.w.to.Seconds(), Traced: ws.w.traced,
			Attempted: ws.attempted, Succeeded: ws.succeeded, Failed: ws.attempted - ws.succeeded,
			Outcomes: outcomeMap(ws.outcomes), Classes: map[string]classRecord{},
		}
		for name, cs := range ws.byClass {
			cr := classRecord{
				Attempted: cs.attempted, Succeeded: cs.succeeded, Failed: cs.attempted - cs.succeeded,
				SLOMet: cs.sloMet, Outcomes: outcomeMap(cs.outcomes), LatencyN: len(cs.latMs),
			}
			cr.P50Ms, _ = percentile(cs.latMs, 50)
			cr.P99Ms, _ = percentile(cs.latMs, 99)
			wr.Classes[name] = cr
		}
		rec.Windows = append(rec.Windows, wr)
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", r.opts.workload, r.opts.seed, r.opts.seconds.Seconds(), r.opts.trace)
	for _, set := range []*metrics{r.e2e, r.layer} {
		if set == nil {
			continue
		}
		for _, name := range set.names {
			m := set.byKey[name]
			rec.Metrics[name] = m
			note := ""
			if m.Note != "" {
				note = "  (" + m.Note + ")"
			}
			fmt.Fprintf(w, "  %-34s %14.4f %-7s n=%d%s\n", name, m.Value, m.Unit, m.N, note)
		}
	}
	if r.opts.trace {
		rec.Layers = map[string]layerMapping{}
		for _, lm := range layerSpecs {
			rec.Layers[lm.Metric] = lm
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", raw)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, name := range out.names {
		m := out.byKey[name]
		final.Metrics[name] = value{m.Value, m.Unit}
	}
	raw, err = json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
