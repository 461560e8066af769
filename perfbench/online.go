package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"harvest/internal/core"
	"harvest/internal/serve"
)

// model is the servable model every workload runs.
const model = "ViT_Tiny"

// mixClass is one traffic class of online-mixed.
type mixClass struct {
	name   string
	wire   string // serve SLO class
	tenant string
	rate   float64 // requests per second
	items  int
	slo    time.Duration // client-observed latency limit
}

// mixClasses is online-mixed's traffic: open-loop Poisson arrivals at
// constant rates. Realtime requests carry no deadline of their own, so
// the server applies its default 16.7 ms budget. The rates keep every
// class at an SLO attainment of at least 0.95 on a 2-vCPU host: an
// offline batch occupying a replica's single instance is what pushes
// realtime requests past 16.7 ms, so offline runs at 5 requests/s.
var mixClasses = []mixClass{
	{"realtime", "realtime", "", 60, 1, serve.DefaultRealtimeBudget},
	{"online/farm-a", "online", "farm-a", 100, 1, 100 * time.Millisecond},
	{"online/farm-b", "online", "farm-b", 100, 1, 100 * time.Millisecond},
	{"offline", "offline", "", 5, 8, time.Second},
}

// arrival is one scheduled operation.
type arrival struct {
	at    time.Duration // intended send, from the run's start
	class int
}

// poissonSchedule draws each class's arrivals over [0, horizon) from
// its own seeded stream, merged in time order.
func poissonSchedule(seed uint64, rates []float64, horizon time.Duration) []arrival {
	var out []arrival
	for c, rate := range rates {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		for t := rng.ExpFloat64() / rate; t < horizon.Seconds(); t += rng.ExpFloat64() / rate {
			out = append(out, arrival{at: time.Duration(t * float64(time.Second)), class: c})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// openLoop fires operation i on its own goroutine at start+at(i),
// however far behind earlier operations are, and returns once every
// operation has been fired and has returned.
func openLoop(ctx context.Context, start time.Time, n int, at func(int) time.Duration, fire func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := start.Add(at(i))
		if sleepUntil(ctx, due) != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fire(i, due)
		}(i)
	}
	wg.Wait()
}

// mixStack is online-mixed's system: two Jetson replicas on loopback
// HTTP behind a router whose handler the load enters in process.
type mixStack struct {
	router  *serve.Router
	handler http.Handler
	servers []*serve.Server
	stops   []func()
}

func (st *mixStack) down() { stopAll(st.stops) }

func upMix(p *probe, traced bool) (*mixStack, error) {
	st := &mixStack{}
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := core.NewDeployment(core.DeploymentConfig{
			Platform: "Jetson", Models: []string{model}, TimeScale: 1,
		})
		if err != nil {
			st.down()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		st.stops = append(st.stops, srv.Close)
		h := srv.Handler()
		if traced {
			// The router names its replicas r0, r1, ... in URL order.
			h = p.replicaHandler(fmt.Sprintf("r%d", i), h)
		}
		url, stop, err := listen(h)
		if err != nil {
			st.down()
			return nil, err
		}
		st.stops = append(st.stops, stop)
		urls = append(urls, url)
	}
	r, err := serve.NewRouter(urls, serve.RouterConfig{})
	if err != nil {
		st.down()
		return nil, err
	}
	st.router = r
	st.stops = append(st.stops, r.Close)
	st.handler = r.Handler()
	if traced {
		st.handler = p.routerHandler(st.handler)
	}
	// Ready once the router lists the model from its replicas.
	rec := httptest.NewRecorder()
	st.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v2/models", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), model) {
		st.down()
		return nil, fmt.Errorf("online-mixed: router not ready: %d %s", rec.Code, rec.Body.String())
	}
	return st, nil
}

// mixOp is one online-mixed request's client-side record.
type mixOp struct {
	lagMs, latMs float64
	stages       *stages
}

func runOnlineMixed(o options) (*result, error) {
	wins := windows(o)
	horizon := wins[len(wins)-1].to
	rates := make([]float64, len(mixClasses))
	for i, c := range mixClasses {
		rates[i] = c.rate
	}
	arr := poissonSchedule(o.seed, rates, horizon)
	bodies := make([][]byte, len(mixClasses))
	for i, c := range mixClasses {
		b, err := json.Marshal(serve.InferRequestJSON{Items: c.items, Class: c.wire, Tenant: c.tenant})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	p := newProbe()
	st, setup, err := timeSetups(func() (*mixStack, error) { return upMix(p, o.trace) }, (*mixStack).down)
	if err != nil {
		return nil, err
	}
	res := &result{opts: o, correct: true}
	led := newLedger(len(arr))
	ops := make([]mixOp, len(arr))
	var wrong wrongAnswers

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(horizon+drainTimeout))
	defer cancel()
	start := time.Now()
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		openLoop(ctx, start, len(arr), func(i int) time.Duration { return arr[i].at }, func(i int, due time.Time) {
			c := mixClasses[arr[i].class]
			op := &ops[i]
			op.lagMs = msSince(due)
			id := fmt.Sprintf("om-%d", i)
			req, err := http.NewRequestWithContext(ctx, http.MethodPost,
				"http://router/v2/models/"+model+"/infer", bytes.NewReader(bodies[arr[i].class]))
			if err != nil {
				led.record(i, outTransport)
				return
			}
			req.Header.Set(serve.RequestIDHeader, id)
			rec := httptest.NewRecorder()
			st.handler.ServeHTTP(rec, req)
			op.latMs = msSince(due)
			if rec.Code != http.StatusOK && ctx.Err() != nil {
				return // cut off by the drain deadline: unfinished
			}
			out, s, err := classifyInfer(rec.Code, rec.Body.Bytes(), id, c.items)
			wrong.note(err)
			op.stages = s
			led.record(i, out)
		})
	}()
	spans, err := drive(ctx, start, wins, p)
	<-loadDone
	if err != nil {
		st.down()
		return nil, err
	}

	res.check(led.check())
	res.check(wrong.err())
	res.check(crossCheckMix(st, led))
	st.down()

	for wi, w := range wins {
		ws := newWindowStats(w, spans[wi])
		for i, a := range arr {
			if w.contains(a.at) {
				c := mixClasses[a.class]
				ws.add(c.name, led.get(i), c.items, ops[i].latMs, ops[i].lagMs, c.slo)
			}
		}
		res.windows = append(res.windows, ws)
	}
	res.count()
	if err := res.validate(serve.DefaultRealtimeBudget); err != nil {
		return nil, err
	}
	if !o.trace {
		res.e2e, err = endToEnd(res.windows, setup, true)
		return res, err
	}

	base, traced := splitWindows(res.windows)
	in := &layerInputs{traced: traced, base: base, p: p}
	p.mu.Lock()
	for i, a := range arr {
		if !traced.w.contains(a.at) {
			continue
		}
		switch led.get(i) {
		case outShed:
			in.shed++
		case outExpired:
			in.expired++
		}
		if a.class == 0 && led.get(i).succeeded() {
			in.realtimeMs = append(in.realtimeMs, ops[i].latMs)
		}
		s := ops[i].stages
		id := fmt.Sprintf("om-%d", i)
		rms, okR := p.routerMs[id]
		hms, okH := p.replicaMs[id]
		if s == nil || !okR || !okH {
			continue
		}
		in.stages = append(in.stages, s)
		in.routerSelfMs = append(in.routerSelfMs, rms-hms)
		in.handlerMs = append(in.handlerMs, hms)
		in.unattributedMs = append(in.unattributedMs, hms-s.sum())
		in.e2eUnattributedMs = append(in.e2eUnattributedMs, ops[i].latMs-rms)
	}
	p.mu.Unlock()
	res.layer = in.layerMetrics()
	return res, nil
}

// drainTimeout bounds the wait for operations still in flight when the
// last window closes; any still open then are unfinished.
const drainTimeout = 10 * time.Second

// classifyInfer maps one infer reply to its outcome, checking a 200's
// shape: the request ID and item count are echoed, the fused batch is
// non-empty and the stage timings are present. A malformed 200 is a
// wrong answer and its error says why.
func classifyInfer(code int, body []byte, id string, items int) (outcome, *stages, error) {
	switch {
	case code == http.StatusOK:
	case code == http.StatusTooManyRequests:
		return outShed, nil, nil
	case code == http.StatusGatewayTimeout:
		return outExpired, nil, nil
	case code >= 500:
		return outServerErr, nil, nil
	default:
		return outTransport, nil, nil
	}
	var r serve.InferResponseJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return outWrong, nil, fmt.Errorf("request %s: undecodable reply: %v", id, err)
	}
	switch {
	case r.ID != id:
		return outWrong, nil, fmt.Errorf("request %s: reply echoes id %q", id, r.ID)
	case r.Items != items:
		return outWrong, nil, fmt.Errorf("request %s: reply echoes %d items, sent %d", id, r.Items, items)
	case r.BatchSize < 1:
		return outWrong, nil, fmt.Errorf("request %s: batch_size %d", id, r.BatchSize)
	case r.Timings == nil:
		return outWrong, nil, fmt.Errorf("request %s: reply has no timings_ms", id)
	}
	return outOK, stagesOfJSON(&r), nil
}

// crossCheckMix compares the client's tally with the servers' own
// counters: every 200 the client saw is a request the router answered
// and a replica served, and every 504 is a replica expiry.
func crossCheckMix(st *mixStack, led *ledger) error {
	t := led.tally()
	answered := t[outOK] + t[outWrong]
	var served, expired int64
	for _, srv := range st.servers {
		m, err := srv.MetricsFor(model)
		if err != nil {
			return err
		}
		served += m.Requests
		expired += m.Expired
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	routed := st.router.Metrics(ctx).Router.Requests
	if served != answered || routed != answered || expired != t[outExpired] {
		return fmt.Errorf("cross-tier: client saw %d ok and %d expired; router answered %d; replicas served %d and expired %d",
			answered, t[outExpired], routed, served, expired)
	}
	return nil
}
