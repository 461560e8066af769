package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// recorded returns a snapshot of observations at the given latencies.
func recorded(seconds ...float64) HistogramSnapshot {
	var r LatencyRecorder
	for _, s := range seconds {
		r.Observe(s)
	}
	return r.Snapshot()
}

func TestHistogramSnapshotJSONRoundTrip(t *testing.T) {
	h := recorded(0.0011, 0.0042, 0.33, 1.7e-7, 12)
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "sum_ms", "min_ms", "max_ms", "buckets"} {
		if _, ok := wire[k]; !ok {
			t.Errorf("wire summary lacks %q: %s", k, b)
		}
	}
	if got := wire["max_ms"].(float64); got != 12000 {
		t.Errorf("max_ms %v, want 12000", got)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-15*math.Abs(b) }
	if back.Count != h.Count || !reflect.DeepEqual(back.Counts, h.Counts) ||
		!near(back.Sum, h.Sum) || !near(back.Min, h.Min) || !near(back.Max, h.Max) {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", back, h)
	}
	// From a decoded snapshot on, the round trip is exact.
	b, _ = json.Marshal(back)
	var again HistogramSnapshot
	if err := json.Unmarshal(b, &again); err != nil || !reflect.DeepEqual(again, back) {
		t.Errorf("re-decoded %+v, want %+v (%v)", again, back, err)
	}
	// An empty histogram omits its buckets and decodes to the full
	// layout.
	b, _ = json.Marshal(HistogramSnapshot{})
	if strings.Contains(string(b), "buckets") {
		t.Errorf("empty histogram ships buckets: %s", b)
	}
	if err := json.Unmarshal(b, &back); err != nil || len(back.Counts) != NumLatencyBuckets || back.Count != 0 {
		t.Errorf("empty histogram decoded to %+v, %v", back, err)
	}
}

func TestHistogramSnapshotJSONRejectsBadInput(t *testing.T) {
	for name, in := range map[string]string{
		"short buckets":       `{"count":1,"buckets":[1]}`,
		"count without hist":  `{"count":3}`,
		"count disagrees":     `{"count":2,"buckets":[1` + strings.Repeat(",0", NumLatencyBuckets-1) + `]}`,
		"negative sum":        `{"sum_ms":-1}`,
		"overflowing maximum": `{"max_ms":1e400}`,
	} {
		var h HistogramSnapshot
		if err := json.Unmarshal([]byte(in), &h); err == nil {
			t.Errorf("%s: %s decoded to %+v", name, in, h)
		}
	}
}

// FuzzHistogramSnapshotJSON feeds the decoder arbitrary bytes, as a
// router reading replicas' metrics over the network would. It must
// never panic; anything it accepts has the shared layout and a
// consistent count, and re-encodes to itself.
func FuzzHistogramSnapshotJSON(f *testing.F) {
	good, _ := json.Marshal(recorded(0.001, 0.02, 3))
	f.Add(good)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"count":1,"buckets":[1]}`))
	f.Add([]byte(`{"count":0,"sum_ms":1.5e-3,"min_ms":0.1,"max_ms":7}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var s HistogramSnapshot
		if json.Unmarshal(in, &s) != nil {
			return
		}
		if len(s.Counts) != NumLatencyBuckets {
			t.Fatalf("accepted %d buckets", len(s.Counts))
		}
		var total uint64
		for _, c := range s.Counts {
			total += c
		}
		if total != s.Count {
			t.Fatalf("count %d, buckets sum to %d", s.Count, total)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not encode: %v", err)
		}
		var again HistogramSnapshot
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-decode %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("encode→decode is not a fixed point:\n in %+v\nout %+v", s, again)
		}
	})
}

type mergeTenant struct {
	Requests int64             `prom:"t_requests_total,counter,per tenant"`
	Queue    HistogramSnapshot `prom:"t_queue_seconds,histogram,per tenant"`
}

type mergeModel struct {
	Model   string                 `label:"model"`
	Depth   int64                  `prom:"m_depth,gauge,queue depth"`
	ByClass map[string]int         `prom:"m_class_total,counter,per class" label:"class"`
	Tenants map[string]mergeTenant `label:"tenant"`
	Ext     any
}

func TestMergeFoldsTaggedSnapshots(t *testing.T) {
	a := []mergeModel{{Model: "x", Depth: 2, ByClass: map[string]int{"online": 1},
		Tenants: map[string]mergeTenant{"a": {Requests: 1, Queue: recorded(0.001)}},
		Ext:     &mergeTenant{Requests: 4}}}
	b := []mergeModel{
		{Model: "y", Depth: 5},
		{Model: "x", Depth: 3, ByClass: map[string]int{"online": 2, "offline": 7},
			Tenants: map[string]mergeTenant{"a": {Requests: 2, Queue: recorded(1)}, "b": {Requests: 9}},
			Ext:     &mergeTenant{Requests: 6}},
	}
	var agg []mergeModel
	Merge(&agg, a)
	Merge(&agg, b)
	if len(agg) != 2 || agg[0].Model != "x" || agg[1].Model != "y" {
		t.Fatalf("merged models %+v", agg)
	}
	x := agg[0]
	if x.Depth != 5 || x.ByClass["online"] != 3 || x.ByClass["offline"] != 7 {
		t.Errorf("merged scalars %+v", x)
	}
	if ta := x.Tenants["a"]; ta.Requests != 3 || ta.Queue.Count != 2 || ta.Queue.Max != 1 {
		t.Errorf("merged tenant a %+v", ta)
	}
	if x.Tenants["b"].Requests != 9 {
		t.Errorf("tenant b %+v", x.Tenants["b"])
	}
	if ext, ok := x.Ext.(*mergeTenant); !ok || ext.Requests != 10 {
		t.Errorf("merged interface value %#v", x.Ext)
	}
	// The inputs are untouched: the aggregate owns its maps.
	if a[0].ByClass["online"] != 1 || a[0].Tenants["a"].Requests != 1 || a[0].Ext.(*mergeTenant).Requests != 4 {
		t.Errorf("merge wrote into its source: %+v", a[0])
	}

	var b2 strings.Builder
	WriteProm(&b2, agg)
	out := b2.String()
	if err := LintExposition(out); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{
		`m_depth{model="x"} 5`,
		`m_class_total{model="x",class="offline"} 7`,
		`t_requests_total{model="x",tenant="b"} 9`,
		`t_queue_seconds_count{model="x",tenant="a"} 2`,
		"# TYPE t_queue_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# HELP m_depth ") != 1 {
		t.Errorf("family m_depth not rendered once:\n%s", out)
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	var b strings.Builder
	WriteProm(&b, struct {
		Q HistogramSnapshot `prom:"q_seconds,histogram,q"`
		N int               `prom:"n_total,counter,n"`
	}{Q: recorded(0.01, 0.02), N: 3})
	good := b.String()
	if err := LintExposition(good); err != nil {
		t.Fatalf("valid exposition rejected: %v\n%s", err, good)
	}
	for name, bad := range map[string]string{
		"sample before HELP": "n_total 3\n# HELP n_total n\n# TYPE n_total counter\n",
		"duplicate HELP":     "# HELP n_total n\n# HELP n_total n\n# TYPE n_total counter\nn_total 3\n",
		"TYPE before HELP":   "# TYPE n_total counter\n# HELP n_total n\nn_total 3\n",
		"repeated family":    good + "# HELP n_total n\n# TYPE n_total counter\nn_total 3\n",
		"split family":       "# HELP a_total a\n# TYPE a_total counter\na_total 1\n" + good + "a_total 2\n",
		"decreasing bucket":  strings.Replace(good, `q_seconds_bucket{le="+Inf"} 2`, `q_seconds_bucket{le="+Inf"} 1`, 1),
		"count off +Inf":     strings.Replace(good, "q_seconds_count 2", "q_seconds_count 5", 1),
	} {
		if bad == good {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if err := LintExposition(bad); err == nil {
			t.Errorf("%s: lint accepted\n%s", name, bad)
		}
	}
}
