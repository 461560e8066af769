package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/engine"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
	"harvest/internal/tensor"
)

// probe times calls at the stack's public seams: the router's and each
// replica's http.Handler, preprocess.Engine.ProcessBatch,
// engine.Forwarder.Forward and stream.Backend.Submit. It records only
// while on, so one stack serves an untraced and a traced window.
type probe struct {
	on atomic.Bool

	mu           sync.Mutex
	routerMs     map[string]float64 // request ID → router handler time
	replicaMs    map[string]float64 // request ID → replica handler time, summed over attempts
	replicaCalls map[string]int     // replica name → infer calls
	routerCalls  int

	preprocMs     []float64 // one per ProcessBatch call
	preprocImgs   int
	preprocFailed int

	forwardMs     float64
	forwardCalls  int
	forwardImgs   int
	forwardFailed int

	submits       map[string]submitRec // request ID → Submit timing
	submitShed    int
	submitExpired int
}

// submitRec is one stream.Backend.Submit call: its duration and the
// stage breakdown of the response.
type submitRec struct {
	ms     float64
	stages *stages
}

func newProbe() *probe {
	return &probe{
		routerMs:     map[string]float64{},
		replicaMs:    map[string]float64{},
		replicaCalls: map[string]int{},
		submits:      map[string]submitRec{},
	}
}

func msSince(t time.Time) float64 { return durMs(time.Since(t)) }

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// routerHandler times the router's infer requests by request ID.
func (p *probe) routerHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !p.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		next.ServeHTTP(w, r)
		ms := msSince(t)
		p.mu.Lock()
		p.routerMs[r.Header.Get(serve.RequestIDHeader)] = ms
		p.routerCalls++
		p.mu.Unlock()
	})
}

// replicaHandler times one replica's infer requests by request ID.
func (p *probe) replicaHandler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || !p.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		next.ServeHTTP(w, r)
		ms := msSince(t)
		p.mu.Lock()
		p.replicaMs[r.Header.Get(serve.RequestIDHeader)] += ms
		p.replicaCalls[name]++
		p.mu.Unlock()
	})
}

// preprocProbe times preprocess.Engine.ProcessBatch.
type preprocProbe struct {
	preprocess.Engine
	p *probe
}

func (e preprocProbe) ProcessBatch(items []preprocess.Item) (preprocess.Result, error) {
	if !e.p.on.Load() {
		return e.Engine.ProcessBatch(items)
	}
	t := time.Now()
	res, err := e.Engine.ProcessBatch(items)
	ms := msSince(t)
	e.p.mu.Lock()
	e.p.preprocMs = append(e.p.preprocMs, ms)
	e.p.preprocImgs += len(items)
	if err != nil {
		e.p.preprocFailed += len(items)
	}
	e.p.mu.Unlock()
	return res, err
}

// forwardProbe times engine.Forwarder.Forward.
type forwardProbe struct {
	next engine.Forwarder
	p    *probe
}

func (f forwardProbe) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !f.p.on.Load() {
		return f.next.Forward(x)
	}
	t := time.Now()
	y, err := f.next.Forward(x)
	ms := msSince(t)
	f.p.mu.Lock()
	f.p.forwardMs += ms
	f.p.forwardCalls++
	f.p.forwardImgs += x.Shape[0]
	if err != nil {
		f.p.forwardFailed += x.Shape[0]
	}
	f.p.mu.Unlock()
	return y, err
}

// backendProbe times stream.Backend.Submit on a replica.
type backendProbe struct {
	*serve.Server
	p *probe
}

func (b backendProbe) Submit(ctx context.Context, req *serve.Request) (*serve.Response, error) {
	if !b.p.on.Load() {
		return b.Server.Submit(ctx, req)
	}
	t := time.Now()
	resp, err := b.Server.Submit(ctx, req)
	rec := submitRec{ms: msSince(t)}
	if err == nil {
		rec.stages = stagesOf(resp)
	}
	b.p.mu.Lock()
	b.p.submits[req.ID] = rec
	switch {
	case errors.Is(err, serve.ErrOverloaded):
		b.p.submitShed++
	case errors.Is(err, serve.ErrDeadlineExpired):
		b.p.submitExpired++
	}
	b.p.mu.Unlock()
	return resp, err
}

// instrument moves every model of a fresh deployment onto a new server
// whose preprocessor and real backend run behind the probe. The model
// configuration is the deployment's own, so only the wrappers differ.
func instrument(srv *serve.Server, p *probe) (*serve.Server, error) {
	var cfgs []serve.ModelConfig
	for _, name := range srv.Models() {
		mc, err := srv.ModelConfigFor(name)
		if err != nil {
			srv.Close()
			return nil, err
		}
		cfgs = append(cfgs, mc)
	}
	out := serve.NewServer()
	out.SetTrace(srv.Trace())
	srv.Close()
	for _, mc := range cfgs {
		if mc.Preproc != nil {
			mc.Preproc = preprocProbe{mc.Preproc, p}
		}
		if mc.Engine.Real != nil {
			mc.Engine.Real = forwardProbe{mc.Engine.Real, p}
		}
		if err := out.Register(mc); err != nil {
			out.Close()
			return nil, fmt.Errorf("instrument %s: %w", mc.Name, err)
		}
	}
	return out, nil
}

// stages is the server's per-request stage breakdown in milliseconds,
// as timings_ms carries it.
type stages struct {
	admit, preprocess, queue, assembly, compute float64
	batch                                       int
}

func (s *stages) sum() float64 { return s.admit + s.preprocess + s.queue + s.assembly + s.compute }

func stagesOf(r *serve.Response) *stages {
	return &stages{
		admit: r.AdmitSeconds * 1000, preprocess: r.PreprocessSeconds * 1000,
		queue: r.LaneSeconds * 1000, assembly: r.AssembleSeconds * 1000,
		compute: r.ComputeSeconds * 1000, batch: r.BatchSize,
	}
}

func stagesOfJSON(r *serve.InferResponseJSON) *stages {
	t := r.Timings
	return &stages{
		admit: t.AdmitMs, preprocess: t.PreprocessMs, queue: t.QueueMs,
		assembly: t.BatchAssemblyMs, compute: t.ComputeMs, batch: r.BatchSize,
	}
}
