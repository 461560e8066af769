package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sync/atomic"

	"harvest/internal/stats"
)

// The latency histogram layout is fixed and shared by every
// LatencyRecorder in the process (and, via the wire snapshot, across
// processes): log-spaced buckets, histBucketsPerDecade per decade,
// covering 1 µs .. 100 s, plus an underflow bucket below 1 µs and an
// overflow bucket above 100 s. A fixed shared layout is what makes
// histograms from different replicas mergeable *exactly*: bucket
// counts add element-wise, so quantiles of the merged distribution are
// computed from the merged counts instead of being approximated from
// per-replica percentiles.
const (
	histMin              = 1e-6 // lower edge of the first log bucket (1 µs)
	histMax              = 1e2  // upper edge of the last log bucket (100 s)
	histBucketsPerDecade = 8    // resolution: bucket width ratio 10^(1/8) ≈ 1.33
	histLogBuckets       = 64   // 8 decades x 8 buckets

	// NumLatencyBuckets is the fixed bucket count of the shared layout:
	// underflow + log buckets + overflow. HistogramSnapshot.Counts and
	// the buckets field of the /v2/metrics wire format have exactly this
	// length.
	NumLatencyBuckets = histLogBuckets + 2
)

// histUpper[i] is the inclusive upper bound (seconds) of bucket i; the
// last bucket is unbounded.
var histUpper = func() [NumLatencyBuckets]float64 {
	var b [NumLatencyBuckets]float64
	b[0] = histMin
	for i := 1; i <= histLogBuckets; i++ {
		b[i] = histMin * math.Pow(10, float64(i)/histBucketsPerDecade)
	}
	b[NumLatencyBuckets-1] = math.Inf(1)
	return b
}()

// LatencyBucketBounds returns a copy of the shared bucket upper bounds
// in seconds (the last is +Inf), in the order of
// HistogramSnapshot.Counts. Prometheus exposition uses these as the
// "le" labels.
func LatencyBucketBounds() []float64 {
	out := make([]float64, NumLatencyBuckets)
	copy(out, histUpper[:])
	return out
}

// bucketIndex maps a non-negative observation to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	if v > histMax {
		return NumLatencyBuckets - 1
	}
	i := 1 + int(math.Log10(v/histMin)*histBucketsPerDecade)
	// Guard against float fuzz at bucket boundaries: buckets are
	// (histUpper[i-1], histUpper[i]].
	if i < 1 {
		i = 1
	}
	if i > histLogBuckets {
		i = histLogBuckets
	}
	for i > 1 && v <= histUpper[i-1] {
		i--
	}
	for i < histLogBuckets && v > histUpper[i] {
		i++
	}
	return i
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Extremes are stored as float bits + 1 so the zero value means
// "unset" (a genuine 0.0 observation encodes to 1, not 0).
func noteMin(bits *atomic.Uint64, v float64) {
	enc := math.Float64bits(v) + 1
	for {
		old := bits.Load()
		if old != 0 && math.Float64frombits(old-1) <= v {
			return
		}
		if bits.CompareAndSwap(old, enc) {
			return
		}
	}
}

func noteMax(bits *atomic.Uint64, v float64) {
	enc := math.Float64bits(v) + 1
	for {
		old := bits.Load()
		if old != 0 && math.Float64frombits(old-1) >= v {
			return
		}
		if bits.CompareAndSwap(old, enc) {
			return
		}
	}
}

func loadExtreme(bits *atomic.Uint64) float64 {
	old := bits.Load()
	if old == 0 {
		return 0
	}
	return math.Float64frombits(old - 1)
}

// HistogramSnapshot is a point-in-time copy of a LatencyRecorder in the
// shared bucket layout. Snapshots merge exactly (bucket counts add), so
// a fleet's latency distribution is reconstructed losslessly from
// per-replica snapshots — the fix for the router's old count-weighted
// mean of percentiles, which is not a percentile of anything.
//
// On the wire a snapshot is a millisecond summary (see MarshalJSON)
// that still carries its buckets, sum and extremes, so a decoded
// snapshot merges exactly again.
type HistogramSnapshot struct {
	// Count is the number of observations (the sum of Counts).
	Count uint64
	// Sum and SumSq are the exact running sum and sum of squares of the
	// observations, in seconds (and seconds^2).
	Sum   float64
	SumSq float64
	// Min and Max are the exact observed extremes; valid when Count > 0.
	Min float64
	Max float64
	// Counts holds one count per bucket in the shared layout
	// (LatencyBucketBounds order), length NumLatencyBuckets.
	Counts []uint64
}

// Merge returns the element-wise sum of two snapshots: the exact
// histogram of the union of both observation sets.
func (s HistogramSnapshot) Merge(o HistogramSnapshot) HistogramSnapshot {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	out := HistogramSnapshot{
		Count: s.Count + o.Count,
		Sum:   s.Sum + o.Sum,
		SumSq: s.SumSq + o.SumSq,
		Min:   s.Min,
		Max:   s.Max,
	}
	if o.Min < out.Min {
		out.Min = o.Min
	}
	if o.Max > out.Max {
		out.Max = o.Max
	}
	out.Counts = make([]uint64, NumLatencyBuckets)
	copy(out.Counts, s.Counts)
	for i, c := range o.Counts {
		if i >= len(out.Counts) {
			break
		}
		out.Counts[i] += c
	}
	return out
}

// Quantile returns the p-th percentile (0..100) in seconds,
// interpolated linearly within the containing bucket and clamped to
// the exact observed [Min, Max]. Within a log bucket the relative
// error is bounded by the bucket width ratio (10^(1/8) ≈ 1.33).
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 100 {
		return s.Max
	}
	target := p / 100 * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := 0.0
			if i > 0 {
				lo = histUpper[i-1]
			}
			hi := histUpper[i]
			if math.IsInf(hi, 1) || hi > s.Max {
				hi = s.Max
			}
			if lo < s.Min {
				lo = s.Min
			}
			if hi < lo {
				hi = lo
			}
			v := lo + (hi-lo)*(target-cum)/float64(c)
			return clamp(v, s.Min, s.Max)
		}
		cum = next
	}
	return s.Max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Summary computes descriptive statistics from the snapshot: mean,
// min and max are exact (tracked alongside the buckets), percentiles
// are bucket-interpolated.
func (s HistogramSnapshot) Summary() stats.Summary {
	out := stats.Summary{N: int(s.Count)}
	if s.Count == 0 {
		return out
	}
	n := float64(s.Count)
	out.Mean = s.Sum / n
	if v := s.SumSq/n - out.Mean*out.Mean; v > 0 {
		out.Std = math.Sqrt(v)
	}
	out.Min, out.Max = s.Min, s.Max
	out.P50 = s.Quantile(50)
	out.P90 = s.Quantile(90)
	out.P95 = s.Quantile(95)
	out.P99 = s.Quantile(99)
	return out
}

// histogramJSON is the wire form of a HistogramSnapshot: millisecond
// summary fields for readers, plus the buckets, sum and extremes an
// aggregator needs to merge exactly. Only the latter are decoded; the
// percentiles and mean are derived.
type histogramJSON struct {
	Count   uint64   `json:"count"`
	MeanMs  float64  `json:"mean_ms"`
	P50Ms   float64  `json:"p50_ms"`
	P95Ms   float64  `json:"p95_ms"`
	P99Ms   float64  `json:"p99_ms"`
	SumMs   float64  `json:"sum_ms"`
	MinMs   float64  `json:"min_ms"`
	MaxMs   float64  `json:"max_ms"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the snapshot as {count, mean_ms, p50_ms, p95_ms,
// p99_ms, sum_ms, min_ms, max_ms, buckets}; buckets are omitted while
// the histogram is empty.
func (s HistogramSnapshot) MarshalJSON() ([]byte, error) {
	sum := s.Summary()
	j := histogramJSON{
		Count:  s.Count,
		MeanMs: sum.Mean * 1000,
		P50Ms:  sum.P50 * 1000,
		P95Ms:  sum.P95 * 1000,
		P99Ms:  sum.P99 * 1000,
		SumMs:  s.Sum * 1000,
		MinMs:  s.Min * 1000,
		MaxMs:  s.Max * 1000,
	}
	if s.Count > 0 {
		j.Buckets = s.Counts
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the MarshalJSON form. The router reads it from
// replicas over the network, so it is validated: buckets must be absent
// (an empty histogram) or exactly NumLatencyBuckets long, count must be
// their sum, and sum and extremes must not be negative. A decoded
// snapshot always has NumLatencyBuckets counts, and re-encodes to
// itself: a float that is x/1000 survives *1000 then /1000.
func (s *HistogramSnapshot) UnmarshalJSON(b []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	out := HistogramSnapshot{Counts: j.Buckets, Sum: j.SumMs / 1000, Min: j.MinMs / 1000, Max: j.MaxMs / 1000}
	switch {
	case len(j.Buckets) == 0 && j.Count == 0:
		out.Counts = make([]uint64, NumLatencyBuckets)
	case len(j.Buckets) != NumLatencyBuckets:
		return fmt.Errorf("metrics: histogram has %d buckets, want %d", len(j.Buckets), NumLatencyBuckets)
	}
	for _, c := range out.Counts {
		if out.Count+c < out.Count {
			return fmt.Errorf("metrics: histogram bucket counts overflow")
		}
		out.Count += c
	}
	if out.Count != j.Count {
		return fmt.Errorf("metrics: histogram count %d, buckets sum to %d", j.Count, out.Count)
	}
	if j.SumMs < 0 || j.MinMs < 0 || j.MaxMs < 0 {
		return fmt.Errorf("metrics: negative latency in histogram")
	}
	*s = out
	return nil
}
