package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"

	"harvest/internal/imaging"
	"harvest/internal/stream"
)

// benchmarkJSON is the subset of ../BENCHMARK.json the tests compare
// against the program's own metric and workload lists.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	if len(endToEndSpecs) > 16 || len(layerSpecs) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEndSpecs), len(layerSpecs))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("metric %q declared twice", name)
		}
		seen[name] = true
		if better != "higher" && better != "lower" {
			t.Errorf("metric %q: better %q", name, better)
		}
		if unit == "" {
			t.Errorf("metric %q has no unit", name)
		}
	}
	for _, m := range endToEndSpecs {
		check(m.Name, m.Unit, m.Better)
	}
	for _, m := range layerSpecs {
		check(m.Metric, m.Unit, m.Better)
		if len(m.Moves) == 0 || len(m.On) == 0 {
			t.Errorf("metric %q maps to no end-to-end metric or workload", m.Metric)
		}
		for _, w := range m.On {
			if workloads[w] == nil {
				t.Errorf("metric %q maps to unknown workload %q", m.Metric, w)
			}
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the program: the same
// workloads, and the same metrics with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndSpecs))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		s := endToEndSpecs[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Bound != maxBound {
		t.Errorf("setup_s must come first with the largest bound")
	}
	if len(b.PerLayer) != len(layerSpecs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerSpecs))
	}
	for i, m := range b.PerLayer {
		s := layerSpecs[i]
		if m.Name != s.Metric || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %s %s %s", i, m, s.Metric, s.Unit, s.Better)
		}
	}
}

// TestReportedNames checks that a run reports exactly the declared
// metrics, in order, with their declared units.
func TestReportedNames(t *testing.T) {
	w := window{from: 0, to: time.Second, traced: true}
	ws := newWindowStats(w, span{})
	for i := 0; i < 2000; i++ {
		ws.add("c", outOK, 1, float64(i), 0, time.Second)
	}
	e2e, err := endToEnd([]*windowStats{ws, ws}, []float64{1, 2, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e.names) != len(endToEndSpecs) {
		t.Fatalf("end-to-end reports %v", e2e.names)
	}
	for i, s := range endToEndSpecs {
		if e2e.names[i] != s.Name || e2e.byKey[s.Name].Unit != s.Unit {
			t.Errorf("end-to-end %d: reported %s %s, declared %s %s", i, e2e.names[i], e2e.byKey[e2e.names[i]].Unit, s.Name, s.Unit)
		}
	}
	in := &layerInputs{traced: ws, base: ws, p: newProbe()}
	layer := in.layerMetrics()
	if len(layer.names) != len(layerSpecs) {
		t.Fatalf("per-layer reports %d metrics, declared %d", len(layer.names), len(layerSpecs))
	}
	for i, s := range layerSpecs {
		if layer.names[i] != s.Metric || layer.byKey[s.Metric].Unit != s.Unit {
			t.Errorf("per-layer %d: reported %s %s, declared %s %s", i, layer.names[i], layer.byKey[layer.names[i]].Unit, s.Metric, s.Unit)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	rates := []float64{60, 100, 5}
	a := poissonSchedule(1, rates, 5*time.Second)
	b := poissonSchedule(1, rates, 5*time.Second)
	c := poissonSchedule(2, rates, 5*time.Second)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].at < a[i-1].at {
			t.Fatalf("arrivals out of order at %d", i)
		}
	}
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestInputsAreSeeded(t *testing.T) {
	a, err := cameras(1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cameras(1)
	c, _ := cameras(2)
	for ci := range a {
		for i := range a[ci].frames {
			if !bytes.Equal(a[ci].frames[i], b[ci].frames[i]) {
				t.Fatalf("camera %s frame %d differs under the same seed", a[ci].name, i)
			}
		}
		if bytes.Equal(a[ci].frames[0], c[ci].frames[0]) {
			t.Errorf("camera %s: different seeds gave the same first frame", a[ci].name)
		}
	}
	for i := 1; i < len(a[1].frames); i++ {
		if bytes.Equal(a[1].frames[i], a[1].frames[i-1]) {
			t.Errorf("panning frames %d and %d are identical", i-1, i)
		}
	}
	x, _, err := cornImages(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	y, _, _ := cornImages(1, 3)
	z, _, _ := cornImages(2, 3)
	for i := range x {
		if !bytes.Equal(x[i], y[i]) {
			t.Errorf("offline image %d differs under the same seed", i)
		}
		if bytes.Equal(x[i], z[i]) {
			t.Errorf("offline image %d is the same under different seeds", i)
		}
		if i > 0 && bytes.Equal(x[i], x[i-1]) {
			t.Errorf("offline images %d and %d repeat", i-1, i)
		}
	}
}

func TestLedgerConservation(t *testing.T) {
	fresh := func() *ledger {
		l := newLedger(4)
		l.record(0, outOK)
		l.record(1, outShed)
		l.record(2, outExpired)
		return l // operation 3 unfinished
	}
	if err := fresh().check(); err != nil {
		t.Fatalf("consistent ledger: %v", err)
	}
	l := fresh()
	l.record(0, outServerErr)
	if l.check() == nil {
		t.Error("a double-counted outcome passed the check")
	}
	l = fresh()
	l.counts[outOK].Add(-1) // an outcome recorded but dropped from its counter
	if l.check() == nil {
		t.Error("a dropped outcome passed the check")
	}
	l = fresh()
	l.counts[outShed].Add(1) // an outcome counted for no operation
	if l.check() == nil {
		t.Error("an extra count passed the check")
	}
}

func TestStreamSummaryConservation(t *testing.T) {
	var tally [numOutcomes]int64
	tally[outOK], tally[outCached], tally[outDropped] = 5, 4, 1
	good := stream.Summary{Camera: "c", Frames: 10, ServedEdge: 5, DedupHits: 4, Dropped: 1}
	if err := checkSummary(good, tally, 10); err != nil {
		t.Fatalf("consistent summary: %v", err)
	}
	cases := map[string]func(*stream.Summary, *[numOutcomes]int64) int{
		"server dropped an outcome": func(s *stream.Summary, _ *[numOutcomes]int64) int { s.Dropped--; return 10 },
		"server double-counted":     func(s *stream.Summary, _ *[numOutcomes]int64) int { s.ServedEdge++; return 10 },
		"client lost a frame":       func(_ *stream.Summary, c *[numOutcomes]int64) int { c[outOK]--; c[unfinished]++; return 10 },
		"client double-counted":     func(_ *stream.Summary, c *[numOutcomes]int64) int { c[outCached]++; return 10 },
		"frames sent disagree":      func(_ *stream.Summary, _ *[numOutcomes]int64) int { return 11 },
	}
	for name, mutate := range cases {
		s, c := good, tally
		sent := mutate(&s, &c)
		if checkSummary(s, c, sent) == nil {
			t.Errorf("%s: passed the check", name)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 99); err != nil || v != 990 {
		t.Errorf("P99 of 1..1000 = %g, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 99); err == nil {
		t.Error("P99 of 999 samples (9.99 beyond) was not refused")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 10 {
		t.Errorf("P50 of 1..20 = %g, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("P50 of 19 samples was not refused")
	}
}

func TestClassifyInferChecksShape(t *testing.T) {
	ok := `{"id":"a","model":"m","items":2,"batch_size":3,"timings_ms":{"admit_ms":0.1}}`
	if out, s, err := classifyInfer(200, []byte(ok), "a", 2); out != outOK || s == nil || err != nil {
		t.Fatalf("well-formed reply: %v %v %v", out, s, err)
	}
	for name, body := range map[string]string{
		"wrong id":      `{"id":"b","items":2,"batch_size":3,"timings_ms":{}}`,
		"items dropped": `{"id":"a","items":1,"batch_size":3,"timings_ms":{}}`,
		"empty batch":   `{"id":"a","items":2,"batch_size":0,"timings_ms":{}}`,
		"no timings":    `{"id":"a","items":2,"batch_size":3}`,
		"not json":      `{`,
	} {
		if out, _, err := classifyInfer(200, []byte(body), "a", 2); out != outWrong || err == nil {
			t.Errorf("%s: classified %v", name, out)
		}
	}
	for code, want := range map[int]outcome{429: outShed, 504: outExpired, 500: outServerErr, 502: outServerErr, 400: outTransport} {
		if out, _, _ := classifyInfer(code, nil, "a", 1); out != want {
			t.Errorf("HTTP %d classified %v, want %v", code, out, want)
		}
	}
}

// TestCameraFramesHashAsDesigned checks the camera inputs against the
// ingest tier's own perceptual hash: the static camera's frames match
// one another, and the panning camera's are all far apart.
func TestCameraFramesHashAsDesigned(t *testing.T) {
	cams, err := cameras(7)
	if err != nil {
		t.Fatal(err)
	}
	hashes := func(frames [][]byte) []uint64 {
		var hs []uint64
		for _, f := range frames {
			im, err := imaging.DecodeBytes(f, imaging.FormatJPEG)
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, imaging.DHash(im))
		}
		return hs
	}
	static, panning := hashes(cams[0].frames), hashes(cams[1].frames)
	for i, h := range static {
		if d := imaging.HammingDistance64(h, static[0]); d > 2 {
			t.Errorf("static frame %d is %d bits from frame 0", i, d)
		}
	}
	for i := range panning {
		for j := i + 1; j < len(panning); j++ {
			if d := imaging.HammingDistance64(panning[i], panning[j]); d < 16 {
				t.Errorf("panning frames %d and %d are only %d bits apart", i, j, d)
			}
		}
	}
}
