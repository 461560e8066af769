package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"harvest/internal/core"
	"harvest/internal/datasets"
	"harvest/internal/engine"
	"harvest/internal/hw"
	"harvest/internal/preprocess"
	"harvest/internal/serve"
)

const (
	// offlineWorkers closed-loop clients each send one image, wait for
	// its answer, and send the next.
	offlineWorkers = 2
	// offlineSLO is the offline class's completion limit per image.
	offlineSLO = 10 * time.Second
	// realSeed seeds the int8 weights of the served model and of the
	// reference executable.
	realSeed = 1
	// offlinePoolRate sizes the input pool: distinct images for this
	// many per second of the run, several times today's throughput, so
	// a faster stack never runs out within a run.
	offlinePoolRate = 16
	// checkSamples images have their top-1 checked against a batch-1
	// forward of the reference executable.
	checkSamples = 3
)

// realStack is offline-real's system: one Jetson replica with CPU
// preprocessing and the real int8 backend, on loopback HTTP.
type realStack struct {
	url   string
	stops []func()
}

func (st *realStack) down() { stopAll(st.stops) }

func upReal(p *probe, traced bool, hc *http.Client) (*realStack, error) {
	srv, err := core.NewDeployment(core.DeploymentConfig{
		Platform: "Jetson", Models: []string{model}, Preproc: "cpu",
		RealBackend: "int8", RealSeed: realSeed,
	})
	if err != nil {
		return nil, err
	}
	if traced {
		if srv, err = instrument(srv, p); err != nil {
			return nil, err
		}
	}
	st := &realStack{stops: []func(){srv.Close}}
	h := srv.Handler()
	if traced {
		h = p.replicaHandler("r0", h)
	}
	url, stop, err := listen(h)
	if err != nil {
		st.down()
		return nil, err
	}
	st.url = url
	st.stops = append(st.stops, stop)
	resp, err := hc.Get(url + "/v2/health/ready")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("ready probe: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		st.down()
		return nil, fmt.Errorf("offline-real: replica not ready: %w", err)
	}
	return st, nil
}

// cornImages encodes n distinct Corn Growth Stage (UAS) images of the
// seeded dataset as infer request bodies.
func cornImages(seed uint64, n int) ([][]byte, [][]byte, error) {
	spec, err := datasets.ByName(datasets.SlugCornGrowth)
	if err != nil {
		return nil, nil, err
	}
	ds, err := datasets.New(spec, seed)
	if err != nil {
		return nil, nil, err
	}
	images := make([][]byte, n)
	bodies := make([][]byte, n)
	for i := range images {
		if images[i], _, err = ds.Encoded(i); err != nil {
			return nil, nil, err
		}
		bodies[i], err = json.Marshal(serve.InferRequestJSON{
			Items: 1, Images: [][]byte{images[i]}, ImageFormat: "jpeg", Class: "offline",
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return images, bodies, nil
}

// referenceTop1 classifies each image with a batch-1 forward of a
// separately built int8 executable with the served model's seed, after
// the served model's own preprocessing.
func referenceTop1(images [][]byte) ([]int, error) {
	p, err := hw.ByName("Jetson")
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(p, model)
	if err != nil {
		return nil, err
	}
	if err := eng.AttachReal("int8", realSeed); err != nil {
		return nil, err
	}
	size := eng.Entry.Spec.InputSize
	pre := &preprocess.CPUEngine{Platform: p, Out: size, Materialize: true}
	top := make([]int, len(images))
	for i, img := range images {
		r, err := pre.ProcessBatch([]preprocess.Item{{Encoded: img}})
		if err != nil {
			return nil, err
		}
		out, _, err := eng.InferTensors(r.Tensors, size)
		if err != nil {
			return nil, err
		}
		top[i] = argmax(out[0])
	}
	return top, nil
}

func argmax(xs []float32) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

// realOp is one offline-real request's client-side record.
type realOp struct {
	at     time.Duration // sent, from the run's start
	done   time.Duration // answered, from the run's start
	latMs  float64
	stages *stages
}

func runOfflineReal(o options) (*result, error) {
	wins := windows(o)
	horizon := wins[len(wins)-1].to
	n := int(horizon.Seconds() * offlinePoolRate)
	images, bodies, err := cornImages(o.seed, n)
	if err != nil {
		return nil, err
	}
	// The checked images are among the first dozen sent, which every
	// run answers.
	rng := rand.New(rand.NewPCG(o.seed, 0x0ff))
	checked := map[int]int{}
	var sample [][]byte
	for _, i := range rng.Perm(4 * checkSamples)[:checkSamples] {
		checked[i] = len(sample)
		sample = append(sample, images[i])
	}
	want, err := referenceTop1(sample)
	if err != nil {
		return nil, err
	}

	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU()}}
	defer hc.CloseIdleConnections()
	p := newProbe()
	st, setup, err := timeSetups(func() (*realStack, error) { return upReal(p, o.trace, hc) }, (*realStack).down)
	if err != nil {
		return nil, err
	}
	defer st.down()

	res := &result{opts: o, correct: true}
	led := newLedger(n)
	ops := make([]realOp, n)
	var wrong wrongAnswers
	var next atomic.Int64
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(horizon+drainTimeout))
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < offlineWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < horizon {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op := &ops[i]
				op.at = time.Since(start)
				id := fmt.Sprintf("or-%d", i)
				code, body, err := post(ctx, hc, st.url+"/v2/models/"+model+"/infer", id, bodies[i])
				op.done = time.Since(start)
				op.latMs = durMs(op.done - op.at)
				if err != nil {
					if ctx.Err() == nil {
						led.record(i, outTransport)
					}
					continue
				}
				out, s, err := classifyInfer(code, body, id, 1)
				if out == outOK {
					err = checkTop1(body, id, checked, want, i)
					if err != nil {
						out = outWrong
					}
				}
				wrong.note(err)
				op.stages = s
				led.record(i, out)
			}
		}()
	}
	spans, err := drive(ctx, start, wins, p)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	sent := int(min(next.Load(), int64(n)))
	if sent == n {
		return nil, fmt.Errorf("input pool of %d images ran out; raise offlinePoolRate", n)
	}
	res.check(led.check())
	res.check(wrong.err())
	for i := range checked {
		if led.get(i) != outOK {
			res.check(fmt.Errorf("checked image %d ended %s", i, led.get(i)))
		}
	}

	for wi, w := range wins {
		ws := newWindowStats(w, spans[wi])
		for i := 0; i < sent; i++ {
			if w.contains(ops[i].at) {
				ws.add("offline", led.get(i), 1, ops[i].latMs, 0, offlineSLO)
				if led.get(i).succeeded() {
					ws.doneAt = append(ws.doneAt, ops[i].done)
				}
			}
		}
		res.windows = append(res.windows, ws)
	}
	res.count()
	if !o.trace {
		res.e2e, err = endToEnd(res.windows, setup, false)
		return res, err
	}

	base, traced := splitWindows(res.windows)
	macs, err := macsPerImage()
	if err != nil {
		return nil, err
	}
	in := &layerInputs{traced: traced, base: base, p: p, flopsPerImg: 2 * float64(macs)}
	p.mu.Lock()
	for i := 0; i < sent; i++ {
		s := ops[i].stages
		hms, ok := p.replicaMs[fmt.Sprintf("or-%d", i)]
		if !traced.w.contains(ops[i].at) || s == nil || !ok {
			continue
		}
		in.stages = append(in.stages, s)
		in.handlerMs = append(in.handlerMs, hms)
		in.unattributedMs = append(in.unattributedMs, hms-s.sum())
		in.e2eUnattributedMs = append(in.e2eUnattributedMs, ops[i].latMs-hms)
	}
	p.mu.Unlock()
	res.layer = in.layerMetrics()
	return res, nil
}

// macsPerImage returns the served model's multiply-accumulates per
// image over every layer of its IR.
func macsPerImage() (int64, error) {
	p, err := hw.ByName("Jetson")
	if err != nil {
		return 0, err
	}
	eng, err := engine.New(p, model)
	if err != nil {
		return 0, err
	}
	return eng.Entry.Spec.TotalMACs(), nil
}

// checkTop1 requires one classification per reply and, for a checked
// image, the reference executable's top-1.
func checkTop1(body []byte, id string, checked map[int]int, want []int, i int) error {
	var r serve.InferResponseJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("request %s: %v", id, err)
	}
	if len(r.Classification) != 1 {
		return fmt.Errorf("request %s: %d classifications for 1 image", id, len(r.Classification))
	}
	if k, ok := checked[i]; ok && r.Classification[0] != want[k] {
		return fmt.Errorf("request %s: top-1 %d, reference forward says %d", id, r.Classification[0], want[k])
	}
	return nil
}

// post sends one infer request and returns the status and body.
func post(ctx context.Context, hc *http.Client, url, id string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.RequestIDHeader, id)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
