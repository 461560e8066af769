package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), written with the
// standard library only: enough of the format for counters, gauges and
// the shared-layout latency histograms, so harvest-serve and
// harvest-router can be scraped by a stock Prometheus.
//
// Every exported metric is declared once, as a tagged field of a
// snapshot struct that is also its JSON wire type:
//
//	Dropped int64 `json:"dropped" prom:"example_dropped_total,counter,Requests dropped."`
//
// The prom tag is "family,kind,help", kind being counter, gauge or
// histogram. Integer and bool (0/1) fields are samples;
// HistogramSnapshot fields are histograms. A string field tagged
// label:"name" labels every sample of its struct with the field's
// value; a map field tagged label:"name" labels its entries by key,
// and is itself a family when it also has a prom tag. Untagged structs,
// slices, maps, pointers and interfaces are descended into. WriteProm
// renders such a snapshot and Merge (merge.go) folds two together.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

var histType = reflect.TypeOf(HistogramSnapshot{})

// promEscape escapes a label value: backslash, double quote and
// newline, per the exposition format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// promLabel appends one escaped name="value" pair to a label list.
func promLabel(labels, name, value string) string {
	pair := name + `="` + promEscape(value) + `"`
	if labels == "" {
		return pair
	}
	return labels + "," + pair
}

// promFloat formats a sample value ("+Inf"/"-Inf"/"NaN" per the spec).
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promSample writes one sample line; empty labels write a bare sample.
func promSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, promFloat(v))
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, promFloat(v))
}

// promHist writes a snapshot as a Prometheus histogram: cumulative
// _bucket{le=...} series over the shared bucket bounds, then _sum and
// _count.
func promHist(w io.Writer, name, labels string, s HistogramSnapshot) {
	var cum uint64
	for i, upper := range histUpper {
		if i < len(s.Counts) {
			cum += s.Counts[i]
		}
		fmt.Fprintf(w, "%s_bucket{%s} %d\n", name, promLabel(labels, "le", promFloat(upper)), cum)
	}
	promSample(w, name+"_sum", labels, s.Sum)
	promSample(w, name+"_count", labels, float64(s.Count))
}

// promFamily buffers one family's samples so each family is written as
// one block under a single HELP/TYPE header, whatever order the walk
// visits its samples in.
type promFamily struct {
	name, kind, help string
	body             bytes.Buffer
}

type promRender struct {
	order  []*promFamily
	byName map[string]*promFamily
}

// WriteProm renders a tagged snapshot (see the tag rules above)
// as Prometheus text exposition. Families appear in the order their
// first sample is visited, map entries in key order. Write errors are
// ignored: the writer targets an HTTP response, where a failed scrape
// is retried by the scraper.
func WriteProm(w io.Writer, snapshot any) {
	p := promRender{byName: map[string]*promFamily{}}
	p.walk(reflect.ValueOf(snapshot), "")
	for _, f := range p.order {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		w.Write(f.body.Bytes())
	}
}

func (p *promRender) walk(v reflect.Value, labels string) {
	for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	switch v.Kind() {
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			p.walk(v.Index(i), labels)
		}
	case reflect.Map:
		for _, k := range sortedKeys(v) {
			p.walk(v.MapIndex(k), labels)
		}
	case reflect.Struct:
		if v.Type() == histType {
			return
		}
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if name := t.Field(i).Tag.Get("label"); name != "" && v.Field(i).Kind() == reflect.String {
				labels = promLabel(labels, name, v.Field(i).String())
			}
		}
		for i := 0; i < t.NumField(); i++ {
			f, fv := t.Field(i), v.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, label := f.Tag.Get("prom"), f.Tag.Get("label")
			switch {
			case label != "" && fv.Kind() == reflect.Map:
				for _, k := range sortedKeys(fv) {
					kl := promLabel(labels, label, k.String())
					if tag != "" {
						p.sample(tag, kl, fv.MapIndex(k))
					} else {
						p.walk(fv.MapIndex(k), kl)
					}
				}
			case tag != "":
				p.sample(tag, labels, fv)
			default:
				p.walk(fv, labels)
			}
		}
	}
}

// sample renders one tagged value into its family.
func (p *promRender) sample(tag string, labels string, v reflect.Value) {
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	name, rest, _ := strings.Cut(tag, ",")
	f := p.byName[name]
	if f == nil {
		f = &promFamily{name: name}
		f.kind, f.help, _ = strings.Cut(rest, ",")
		p.byName[name] = f
		p.order = append(p.order, f)
	}
	var x float64
	switch v.Kind() {
	case reflect.Struct:
		promHist(&f.body, name, labels, v.Interface().(HistogramSnapshot))
		return
	case reflect.Bool:
		if v.Bool() {
			x = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x = float64(v.Int())
	default:
		panic("metrics: prom tag on unsupported field type " + v.Type().String())
	}
	promSample(&f.body, name, labels, x)
}

// sortedKeys returns a string-keyed map's keys in order.
func sortedKeys(m reflect.Value) []reflect.Value {
	keys := m.MapKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	return keys
}

// leLabel matches the le="..." pair of a bucket sample's labels.
var leLabel = regexp.MustCompile(`(^|,)le="([^"]*)"`)

// LintExposition checks the structural rules a scraper relies on in a
// text exposition: each family has exactly one HELP and then one TYPE
// line before its samples, and appears as one contiguous block;
// cumulative histogram buckets never decrease; and each histogram
// series' _count equals its +Inf bucket.
func LintExposition(text string) error {
	kinds := map[string]string{} // family → TYPE
	helped := map[string]bool{}
	ended := map[string]bool{} // families whose block is over
	cur := ""
	last := map[string]float64{} // series → last cumulative bucket
	inf := map[string]float64{}  // series → +Inf bucket
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		var family string
		if meta, ok := strings.CutPrefix(line, "# "); ok {
			word, rest, _ := strings.Cut(meta, " ")
			family, rest, _ = strings.Cut(rest, " ")
			switch {
			case word == "HELP" && !helped[family] && kinds[family] == "":
				helped[family] = true
			case word == "TYPE" && helped[family] && kinds[family] == "":
				kinds[family] = rest
			default:
				return fmt.Errorf("family %s: %s repeated or out of order", family, word)
			}
		} else {
			series, value, _ := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				return fmt.Errorf("malformed sample %q", line)
			}
			name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
			family = name
			suffix := ""
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(name, sfx); ok && kinds[name] == "" && kinds[base] == "histogram" {
					family, suffix = base, sfx
				}
			}
			if kinds[family] == "" {
				return fmt.Errorf("sample %q has no HELP/TYPE before it", line)
			}
			key := family + "{" + leLabel.ReplaceAllString(labels, "") + "}"
			switch suffix {
			case "_bucket":
				if v < last[key] {
					return fmt.Errorf("%s: cumulative bucket decreases at %q", key, line)
				}
				last[key] = v
				if m := leLabel.FindStringSubmatch(labels); m != nil && m[2] == "+Inf" {
					inf[key] = v
				}
			case "_count":
				if got, ok := inf[key]; !ok || got != v {
					return fmt.Errorf("%s: _count %v, +Inf bucket %v", key, v, got)
				}
			}
		}
		if family != cur {
			if ended[family] {
				return fmt.Errorf("family %s repeated", family)
			}
			ended[cur], cur = true, family
		}
	}
	return nil
}
