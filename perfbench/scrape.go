package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// scrape is one /v1/metricsz snapshot: counters and gauges by name, and
// each histogram's cumulative buckets.
type scrape struct {
	values map[string]int64
	hists  map[string]histRow
}

type histRow struct {
	Count   uint64 `json:"count"`
	Max     int64  `json:"max"`
	Buckets []struct {
		LE    string `json:"le"`
		Count uint64 `json:"count"`
	} `json:"buckets"`
}

func getScrape(c *http.Client, base string) (*scrape, error) {
	resp, err := c.Get(base + "/v1/metricsz")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

func parseScrape(r io.Reader) (*scrape, error) {
	s := &scrape{values: map[string]int64{}, hists: map[string]histRow{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Value int64  `json:"value"`
			histRow
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
		if row.Type == "histogram" {
			s.hists[row.Name] = row.histRow
		} else {
			s.values[row.Name] = row.Value
		}
	}
	return s, sc.Err()
}

// delta returns the growth of a counter between two scrapes.
func delta(before, after *scrape, name string) float64 {
	return float64(after.values[name] - before.values[name])
}

// cumulative returns h's cumulative count at bound le: the count of the
// last listed bucket with bound <= le (empty buckets are elided).
func (h histRow) cumulative(le float64) uint64 {
	var c uint64
	for _, b := range h.Buckets {
		if parseLE(b.LE) > le {
			break
		}
		c = b.Count
	}
	return c
}

func parseLE(s string) float64 {
	if s == "+Inf" {
		return math.Inf(1)
	}
	v, _ := strconv.ParseFloat(s, 64) // the registry writes plain decimals
	return v
}

// histQuantile estimates the q-quantile, in ms, of the observations a
// histogram gained between two scrapes, interpolating linearly inside
// the power-of-two bucket that holds the rank, as the registry does. A
// tail quantile (q > 0.5) is reported only when at least minBeyond
// observations rank above it.
func histQuantile(before, after histRow, q float64) (ms float64, n int, ok bool) {
	bounds := map[float64]bool{}
	for _, b := range after.Buckets {
		bounds[parseLE(b.LE)] = true
	}
	les := make([]float64, 0, len(bounds))
	for le := range bounds {
		les = append(les, le)
	}
	sort.Float64s(les)
	counts := make([]float64, len(les))
	var prev, total float64
	for i, le := range les {
		cum := float64(after.cumulative(le) - before.cumulative(le))
		counts[i] = cum - prev
		prev = cum
		total = cum
	}
	if total == 0 {
		return 0, 0, false
	}
	rank := q * total
	if q > 0.5 && total-math.Ceil(rank) < minBeyond {
		return 0, int(total), false
	}
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		if math.IsInf(les[i], 1) {
			return float64(after.Max) / 1e6, int(total), true
		}
		lo := les[i] / 2 // buckets double: (le/2, le], the first is (0, 1024]
		if les[i] <= 1024 {
			lo = 0
		}
		v := lo + (rank-cum)/c*(les[i]-lo)
		return math.Min(v, float64(after.Max)) / 1e6, int(total), true
	}
	return float64(after.Max) / 1e6, int(total), true
}
