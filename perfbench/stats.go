package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit and the number of samples
// it summarizes. Base is set on ratios: the denominator the ratio was
// taken over, so a ratio of 0 over 0 reads differently from 0 over 5000.
type metric struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples int      `json:"samples"`
	Base    *float64 `json:"base,omitempty"`
	// Note qualifies a value that is not what its name says on its own,
	// such as a percentile withheld for lack of samples.
	Note string `json:"note,omitempty"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// ratio records num/base with its base. A zero base gives value 0.
func (m metrics) ratio(name, unit string, num, base float64, samples int) {
	v := 0.0
	if base != 0 {
		v = num / base
	}
	b := base
	m[name] = metric{Value: v, Unit: unit, Samples: samples, Base: &b}
}

// note attaches a qualifying note to metric name.
func (m metrics) note(name, text string) {
	v := m[name]
	v.Note = text
	m[name] = v
}

// median returns the median of xs: the middle sample, or the mean of the
// two middle samples for an even count. Zero samples give 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is the number of samples that must lie above a tail
// percentile before it is reported: with fewer, the value is set by a
// handful of samples and does not repeat from run to run.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples rank above it. Callers report the
// value only when ok is true.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	s := sorted(xs)
	return s[k-1], n-k >= minBeyond
}

// setPercentile records the q-quantile of xs under name, or 0 with a
// note when too few samples lie beyond it.
func (m metrics) setPercentile(name, unit string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		m[name] = metric{Unit: unit, Samples: len(xs), Note: "withheld: fewer than 10 samples beyond the percentile"}
		return
	}
	m.set(name, unit, finite(v), len(xs))
}

// finite maps +Inf, the latency of a failed request, to the largest
// float64 so the value stays a JSON number and still ranks last.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
