// Command perfbench is the repository's benchmark. It runs one workload
// through the program's public entry points (protocol.Descriptor.Run,
// soundness.Estimate, and the serve handler behind a loopback listener),
// checks every output, and prints the metrics as JSON. README.md in this
// directory describes the workloads and metrics.
//
//	python3 perfbench/run.py --workload certify-1e4 --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The line before it is the full report: the same metrics with their
// sample counts and ratio bases, the host and build, and every check.
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set from a separate traced run. A failed output
// check makes the result incorrect and the exit status 1.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/protocol"
)

// protocols lists the seven registered protocols in the order metric
// names are declared.
var protocols = []string{"pathouter", "pls", "outerplanar", "embedding", "planarity", "sp", "treewidth2"}

type decl struct{ name, unit string }

// endToEnd is the metric set of an untraced run, on every workload.
func endToEnd() []decl {
	ds := []decl{
		{"setup_s", "s"},
		{"ops_per_s", "1/s"},
		{"peak_rss_mb", "MB"},
		{"latency_p50_ms", "ms"},
	}
	for _, p := range protocols {
		ds = append(ds, decl{"run_ms." + p, "ms"})
	}
	return ds
}

// perLayer is the metric set of a traced run, on every workload. A layer
// the workload does not reach reads 0 with 0 samples.
func perLayer() []decl {
	var ds []decl
	for _, phase := range []string{"prove", "coins", "decide", "glue"} {
		for _, p := range protocols {
			ds = append(ds, decl{"dip." + phase + "_ms." + p, "ms"})
		}
	}
	for _, p := range protocols {
		ds = append(ds, decl{"proof.headroom." + p, "ratio"})
	}
	return append(ds,
		decl{"dip.subruns_per_op", "count/op"},
		decl{"dip.freezes", "count/op"},
		decl{"pool.busy_frac", "ratio"},
		decl{"pool.steals_per_op", "count/op"},
		decl{"gen.build_ms", "ms"},
		decl{"chaos.mutations", "count"},
		decl{"soundness.rejects", "count"},
		decl{"planar.embed_ms", "ms"},
		decl{"serve.admission_ms_p50", "ms"},
		decl{"serve.encode_ms_p50", "ms"},
		decl{"serve.run_ms_p50", "ms"},
		decl{"serve.run_ms_p90", "ms"},
		decl{"serve.queue_wait_ms_p90", "ms"},
		decl{"serve.cache_hit_ratio", "ratio"},
		decl{"serve.shared_ratio", "ratio"},
		decl{"serve.instance_hit_ratio", "ratio"},
		decl{"serve.shed", "count"},
		decl{"ledger.appends", "count"},
		decl{"ledger.flush_ms_p50", "ms"},
		decl{"client.latency_p99_ms", "ms"},
		decl{"client.lag_ms_p99", "ms"},
		decl{"client.hit_p50_ms", "ms"},
		decl{"client.miss_p50_ms", "ms"},
		decl{"go.alloc_mb_per_op", "MB/op"},
		decl{"go.mallocs_per_op", "count/op"},
		decl{"go.gc_pause_ms", "ms/op"},
		decl{"trace.overhead_frac", "ratio"},
	)
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spans    string // traced runs write their spans here when set
}

// result is what a workload hands back: its op counts, the metrics it
// measured, and its output checks.
type result struct {
	attempted, failed int
	metrics           metrics
	checks            []check
	// trace holds what a traced run writes out at the end: the
	// recorder's spans, or serve-mixed's per-request records.
	trace interface{ write(io.Writer) error }
}

// check is one output check, aggregated over every op it was applied to.
type check struct {
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Failures int    `json:"failures,omitempty"`
	Detail   string `json:"detail,omitempty"` // the first failure
}

// expect records one application of the named check and returns ok.
func (r *result) expect(name string, ok bool, format string, args ...any) bool {
	i := 0
	for i < len(r.checks) && r.checks[i].Name != name {
		i++
	}
	if i == len(r.checks) {
		r.checks = append(r.checks, check{Name: name, OK: true})
	}
	if !ok {
		c := &r.checks[i]
		c.OK = false
		c.Failures++
		if c.Detail == "" {
			c.Detail = fmt.Sprintf(format, args...)
		}
	}
	return ok
}

var workloads = map[string]func(context.Context, config) (*result, error){
	"certify-1e4":     runCertify,
	"soundness-sweep": runSweep,
	"serve-mixed":     runServe,
}

// host records where and what ran, as fields of every report.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
	Seed       int64  `json:"seed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "certify-1e4, soundness-sweep or serve-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 25, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	commit := fs.String("commit", "unknown", "commit of the measured tree")
	tree := fs.String("tree-sha256", "unknown", "digest of the measured source files")
	spans := fs.String("spans", "", "traced runs write their spans to this NDJSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(errors.New("--seconds must be >= 1 and --trace 0 or 1"))
	}
	h := host{
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: *commit, TreeSHA256: *tree, Seed: *seed,
	}
	// More Ps than CPUs time-slices the engine's worker pool and turns
	// the pool metrics into scheduler noise.
	if h.GOMAXPROCS > h.NumCPU {
		return fail(fmt.Errorf("GOMAXPROCS=%d exceeds NumCPU=%d; refusing to measure", h.GOMAXPROCS, h.NumCPU))
	}
	if err := checkRegistry(); err != nil {
		return fail(err)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, spans: *spans}
	res, err := wl(context.Background(), cfg)
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	declared := endToEnd()
	if cfg.trace {
		declared = perLayer()
	}
	if err := conform(res.metrics, declared); err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}
	if cfg.trace && cfg.spans != "" && res.trace != nil {
		if err := writeTrace(cfg.spans, res.trace); err != nil {
			return fail(err)
		}
	}
	correct := res.failed == 0
	for _, c := range res.checks {
		correct = correct && c.OK
	}
	report := map[string]any{
		"workload": cfg.workload, "trace": *trace, "seconds": *seconds, "host": h,
		"attempted": res.attempted, "failed": res.failed, "correct": correct,
		"metrics": res.metrics, "checks": res.checks,
	}
	last := map[string]any{"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": plain(res.metrics)}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return fail(err)
	}
	if err := enc.Encode(last); err != nil {
		return fail(err)
	}
	if !correct {
		for _, c := range res.checks {
			if !c.OK {
				fmt.Fprintf(stderr, "perfbench: check %s failed: %s\n", c.Name, c.Detail)
			}
		}
		return 1
	}
	return 0
}

// checkRegistry confirms the registry serves exactly the declared
// protocols, so a renamed protocol fails loudly instead of reading 0.
func checkRegistry() error {
	have := protocol.Names()
	want := append([]string(nil), protocols...)
	sort.Strings(want)
	if strings.Join(have, ",") != strings.Join(want, ",") {
		return fmt.Errorf("registry serves %v, benchmark declares %v", have, want)
	}
	return nil
}

// isRatio reports whether a unit is a ratio, which carries its base.
func isRatio(unit string) bool { return unit == "ratio" || strings.HasSuffix(unit, "/op") }

// conform makes m hold exactly the declared metrics with their units:
// declared per-layer metrics a workload did not measure read 0 with 0
// samples (a ratio over a base of 0), and anything undeclared is a bug.
func conform(m metrics, declared []decl) error {
	want := map[string]string{}
	for _, d := range declared {
		want[d.name] = d.unit
		got, ok := m[d.name]
		if !ok {
			if isRatio(d.unit) {
				m.ratio(d.name, d.unit, 0, 0, 0)
			} else {
				m[d.name] = metric{Unit: d.unit}
			}
			continue
		}
		if got.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, got.Unit, d.unit)
		}
	}
	for name := range m {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not declared for this run", name)
		}
	}
	return nil
}

// repeatSetup runs a workload's set-up at least min times and for at
// least minTime in total, and returns the set-up time each repetition
// reports, in seconds; setup_s is their median. Cheap set-ups repeat
// many times so that one slow moment of a shared host does not decide
// the median.
func repeatSetup(min int, minTime time.Duration, f func(rep int) (time.Duration, error)) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for rep := 0; rep < min || time.Since(start) < minTime; rep++ {
		d, err := f(rep)
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
	}
	return secs, nil
}

// plain strips a metric set down to value and unit, the result-line form.
func plain(m metrics) map[string]any {
	out := make(map[string]any, len(m))
	for name, v := range m {
		out[name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return out
}

func writeTrace(path string, t interface{ write(io.Writer) error }) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := t.write(w); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

// cpuModel reads the CPU model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// memDelta is the change in the Go runtime's allocation counters.
type memDelta struct{ allocMB, mallocs, gcPauseMS float64 }

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memStats()
	return memDelta{
		allocMB:   float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		mallocs:   float64(after.Mallocs - before.Mallocs),
		gcPauseMS: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}

// setGo records the runtime metrics of ops operations.
func (m metrics) setGo(d memDelta, ops int) {
	n := float64(ops)
	m.ratio("go.alloc_mb_per_op", "MB/op", d.allocMB, n, ops)
	m.ratio("go.mallocs_per_op", "count/op", d.mallocs, n, ops)
	m.ratio("go.gc_pause_ms", "ms/op", d.gcPauseMS, n, ops)
}
