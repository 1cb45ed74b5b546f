package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dip"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples beyond rank 990
		{999, 0.99, 990, false}, // 9 beyond
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	} {
		v, ok := percentile(seq(tc.n), tc.q)
		if v != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.q, v, ok, tc.want, tc.ok)
		}
	}
	m := metrics{}
	m.setPercentile("p99", "ms", seq(999), 0.99)
	if got := m["p99"]; got.Value != 0 || got.Samples != 999 || got.Note == "" {
		t.Errorf("withheld percentile recorded as %+v", got)
	}
	m.setPercentile("p99", "ms", seq(1000), 0.99)
	if got := m["p99"]; got.Value != 990 || got.Note != "" {
		t.Errorf("reportable percentile recorded as %+v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestHistQuantileOfGrowth(t *testing.T) {
	row := func(max int64, buckets ...any) histRow {
		var h histRow
		h.Max = max
		for i := 0; i < len(buckets); i += 2 {
			h.Buckets = append(h.Buckets, struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			}{buckets[i].(string), uint64(buckets[i+1].(int))})
		}
		return h
	}
	before := row(1500, "2048", 5, "+Inf", 5)
	after := row(4000, "2048", 10, "4096", 20, "+Inf", 20)
	// Growth: 5 in (1024, 2048], 10 in (2048, 4096]. The median rank 7.5
	// lies a quarter into the second bucket: 2048 + 0.25*2048 ns.
	v, n, ok := histQuantile(before, after, 0.5)
	if !ok || n != 15 || v != 2560/1e6 {
		t.Errorf("p50 = %v ms over %d (ok %v), want 0.00256 over 15", v, n, ok)
	}
	if _, _, ok := histQuantile(before, after, 0.99); ok {
		t.Error("p99 of 15 observations reported")
	}
}

// Every metric with a ratio unit records the base it was taken over,
// including one whose base is 0 because the layer did no work.
func TestRatiosCarryTheirBase(t *testing.T) {
	m := metrics{}
	m.setGo(memDelta{allocMB: 10, mallocs: 100, gcPauseMS: 1}, 5)
	m.setPool(dip.PoolStats(), 5)
	empty := &scrape{values: map[string]int64{}, hists: map[string]histRow{}}
	m.setScraped(empty, empty, 0.7)
	h := headrooms{}
	h.add("pls", 40, 43)
	h.set(m)
	m.setPhases([]phases{{Label: "pls", Wall: 1}})
	if err := conform(m, perLayer()); err != nil {
		t.Fatal(err)
	}
	for name, v := range m {
		if isRatio(v.Unit) && v.Base == nil {
			t.Errorf("ratio %s has no base", name)
		}
	}
	if b := m["go.alloc_mb_per_op"]; b.Value != 2 || *b.Base != 5 {
		t.Errorf("go.alloc_mb_per_op = %v over %v, want 2 over 5", b.Value, *b.Base)
	}
	if b := m["serve.cache_hit_ratio"]; b.Value != 0 || *b.Base != 0 {
		t.Errorf("cache hit ratio with no lookups = %v over %v", b.Value, *b.Base)
	}
}

func TestRepeatSetupRunsAtLeastMinTimes(t *testing.T) {
	secs, err := repeatSetup(3, 0, func(rep int) (time.Duration, error) { return time.Duration(rep+1) * time.Second, nil })
	if err != nil || !reflect.DeepEqual(secs, []float64{1, 2, 3}) {
		t.Errorf("repeatSetup = %v, %v", secs, err)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, decls []decl) {
		var g, w []decl
		for _, m := range got {
			g = append(g, decl{m.Name, m.Unit})
		}
		w = append(w, decls...)
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics in BENCHMARK.json differ from the program's:\n%v\n%v", kind, g, w)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd())
	check("per_layer", spec.PerLayer, perLayer())
}

// More Ps than CPUs is refused before anything runs.
func TestRefusesGOMAXPROCSAboveNumCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "certify-1e4", "--seconds", "1"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 || !strings.Contains(stderr.String(), "GOMAXPROCS") {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}
