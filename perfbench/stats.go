package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail read from fewer samples is one outlier, not a distribution.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by
// nearest rank. It refuses when fewer than minTail samples lie beyond
// it, so a P99 needs at least 1000 samples and a median at least 20.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g outside (0, 100)", p)
	}
	beyond := float64(len(xs)) * (100 - p) / 100
	if beyond < minTail {
		return 0, fmt.Errorf("P%g of %d samples has %.1f beyond it, need %d", p, len(xs), beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// metric is one reported number with its unit and the count of
// samples behind it (0 for a count or a single measurement).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Note explains a value that could not be measured on this run
	// (reported as 0).
	Note string `json:"note,omitempty"`
}

// metrics is an ordered set of named metrics.
type metrics struct {
	names []string
	byKey map[string]metric
}

func newMetrics() *metrics { return &metrics{byKey: map[string]metric{}} }

func (m *metrics) set(name string, v float64, unit string, n int) {
	if _, ok := m.byKey[name]; !ok {
		m.names = append(m.names, name)
	}
	m.byKey[name] = metric{Value: v, Unit: unit, N: n}
}

// note attaches an explanation to a metric already set.
func (m *metrics) note(name, why string) {
	mm := m.byKey[name]
	mm.Note = why
	m.byKey[name] = mm
}

// pct sets a percentile metric, or 0 with the refusal as its note when
// the samples cannot support it.
func (m *metrics) pct(name string, xs []float64, p float64, unit string) {
	v, err := percentile(xs, p)
	m.set(name, v, unit, len(xs))
	switch {
	case len(xs) == 0:
		m.note(name, "no work on this workload")
	case err != nil:
		m.note(name, err.Error())
	}
}
