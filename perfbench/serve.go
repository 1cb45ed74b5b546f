package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/planar"
	"repro/internal/protocol"
	"repro/internal/serve"
)

// serve-mixed: an open loop at a fixed arrival rate against a fresh
// in-process server with the dipserve defaults, over at most serveConns
// loopback connections. Requests cover the seven protocols at two sizes,
// half as inline edge lists (the graphgen -format edges body: witness_pos
// for the path protocols, never a rotation) and half as generator specs
// (the diploadgen body). Most requests repeat an earlier one (cache hits:
// the decode, canonicalize, hash, cache and encode path); the rest run
// the engine on a known instance with a new seed or on a new instance.
//
// The schedule's shape is fixed and only its contents depend on the
// seed: request i belongs to class i mod 28 (protocol × form × size),
// and the j-th request of class c has the kind kindPattern[(j+c) mod 20].
// Every seed therefore sends the same number of requests of each
// protocol, form, size and kind, and per-protocol figures compare
// across seeds.
const (
	// serveRate is a little under half the capacity the parent commit
	// sustained with serveConns connections on a 2-CPU host (96 req/s):
	// at half, a host slowed by a quarter put most repeats behind an
	// in-flight miss and raised their median from 2 ms to as much as
	// 5.7 ms (see README.md).
	// Times the 25 s run, it gives the 1000 requests a p99 needs.
	serveRate  = 40.0
	serveConns = 2
	// A repeat copies a request of its class sent at least repeatGap
	// earlier, so its original has completed and it is a cache hit
	// rather than a shared in-flight computation.
	repeatGap = time.Second
)

var serveSizes = []int{128, 512}

// Request kinds.
const (
	kindRepeat      = "repeat"
	kindNewSeed     = "new_seed"
	kindNewInstance = "new_instance"
)

// kindPattern gives 15 repeats, 3 new instances and 2 new seeds in 20.
var kindPattern = func() []string {
	p := make([]string, 20)
	for j := range p {
		switch j % 8 {
		case 0:
			p[j] = kindNewInstance
		case 4:
			p[j] = kindNewSeed
		default:
			p[j] = kindRepeat
		}
	}
	return p
}()

type instSpec struct {
	proto   string
	inline  bool
	n       int
	genSeed int64
	graph   *serve.GraphJSON // inline form only
	pos     []int
}

// distinctReq is one distinct request body.
type distinctReq struct {
	req  serve.Request
	body []byte
	spec int // index of its instance in plan.specs
}

type plannedSend struct {
	distinct int
	kind     string
}

// plan is the whole request schedule of a run.
type plan struct {
	sends    []plannedSend
	distinct []distinctReq
	specs    []instSpec
	buildsMS []float64 // client-side generator builds of inline instances
	repeats  int
}

func (p *plan) repeatShare() float64 { return float64(p.repeats) / float64(len(p.sends)) }

func makePlan(seed int64, count, gap int) (*plan, error) {
	rng := rand.New(rand.NewSource(derive(seed, "serve/plan")))
	p := &plan{}
	classes := len(protocols) * 2 * len(serveSizes)
	sent := make([][]int, classes)  // class -> indices of its requests
	specs := make([][]int, classes) // class -> its instances
	for i := 0; i < count; i++ {
		c := i % classes
		// Offsetting the pattern by class spreads the misses evenly
		// over time instead of sending every class's miss at once.
		kind := kindPattern[(len(sent[c])+c)%len(kindPattern)]
		// Requests of the class old enough to repeat.
		eligible := 0
		for eligible < len(sent[c]) && sent[c][eligible] <= i-gap {
			eligible++
		}
		if kind == kindRepeat && eligible == 0 {
			kind = kindNewSeed
		}
		if kind == kindNewSeed && len(specs[c]) == 0 {
			kind = kindNewInstance
		}
		sent[c] = append(sent[c], i)
		switch kind {
		case kindRepeat:
			j := sent[c][rng.Intn(eligible)]
			p.sends = append(p.sends, plannedSend{distinct: p.sends[j].distinct, kind: kind})
			p.repeats++
			continue
		case kindNewInstance:
			s := instSpec{
				proto:   protocols[c%len(protocols)],
				inline:  c/len(protocols)%2 == 0,
				n:       serveSizes[c/(2*len(protocols))],
				genSeed: rng.Int63(),
			}
			if s.inline {
				if err := p.buildInline(&s); err != nil {
					return nil, err
				}
			}
			p.specs = append(p.specs, s)
			specs[c] = append(specs[c], len(p.specs)-1)
		}
		spec := specs[c][len(specs[c])-1]
		if kind == kindNewSeed {
			spec = specs[c][rng.Intn(len(specs[c]))]
		}
		if err := p.send(spec, rng.Int63(), kind); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// send appends a new distinct request on instance spec with verifier
// seed seed.
func (p *plan) send(spec int, seed int64, kind string) error {
	s := p.specs[spec]
	req := serve.Request{Protocol: s.proto, Seed: seed}
	if s.inline {
		req.Graph, req.WitnessPos = s.graph, s.pos
	} else {
		d, _ := protocol.Get(s.proto)
		req.Gen = &serve.GenSpecJSON{Family: d.Family, N: s.n, Seed: s.genSeed}
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return err
	}
	p.distinct = append(p.distinct, distinctReq{req: req, body: body, spec: spec})
	p.sends = append(p.sends, plannedSend{distinct: len(p.distinct) - 1, kind: kind})
	return nil
}

// buildInline generates s's instance as graphgen -format edges does.
func (p *plan) buildInline(s *instSpec) error {
	d, _ := protocol.Get(s.proto)
	t0 := time.Now()
	g, pos, _, err := gen.FamilySpec{Family: d.Family, N: s.n, ChordProb: -1}.BuildWitnessed(rand.New(rand.NewSource(s.genSeed)))
	if err != nil {
		return fmt.Errorf("build %s: %w", d.Family, err)
	}
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	s.graph, s.pos = &serve.GraphJSON{N: g.N(), Edges: edges}, pos
	p.buildsMS = append(p.buildsMS, msOf(int64(time.Since(t0))))
	return nil
}

// server is a serve.Server behind a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startServer() (*server, error) {
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	resp, err := http.Get(s.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener down, waits for the serve goroutine, and
// closes the server's pool and ledger.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.srv.Close()
	return err
}

// timing is when one open-loop request was due, sent and done, relative
// to the start of the loop.
type timing struct {
	due, sent, done time.Duration
	ok              bool
}

func (t timing) latency() time.Duration { return t.done - t.due }

// openLoop sends n requests on a fixed schedule, request i due at i/rate
// after the start, over conns senders. A request that falls due while
// every sender is busy goes out late; its latency still counts from its
// due time, so a stall shows in every request it delays.
func openLoop(n int, rate float64, conns int, send func(i int) bool) []timing {
	start := time.Now()
	out := make([]timing, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				if d := due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				ok := send(i)
				out[i] = timing{due: due, sent: sent, done: time.Since(start), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// requestRecord is one request of a traced run, written out at the end.
type requestRecord struct {
	I        int     `json:"i"`
	Protocol string  `json:"protocol"`
	Inline   bool    `json:"inline"`
	N        int     `json:"n"`
	Kind     string  `json:"kind"`
	DueMS    float64 `json:"due_ms"`
	SentMS   float64 `json:"sent_ms"`
	DoneMS   float64 `json:"done_ms"`
	Status   int     `json:"status"`
	CacheHit bool    `json:"cache_hit"`
	ServerMS float64 `json:"server_ms"`
}

type requestLog []requestRecord

func (l requestLog) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range l {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// sendOutcome is what came back for one request.
type sendOutcome struct {
	status int
	err    error
	resp   serve.Response
}

func runServe(ctx context.Context, cfg config) (*result, error) {
	res := &result{metrics: metrics{}}
	count := int(serveRate * cfg.seconds.Seconds())
	gap := int(serveRate * repeatGap.Seconds())
	// Set-up: generate the request schedule and start a server. The
	// last repetition's server serves; earlier ones stop untimed.
	var p *plan
	var srv *server
	setups, err := repeatSetup(3, 2*time.Second, func(int) (time.Duration, error) {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return 0, err
			}
			srv = nil
		}
		t0 := time.Now()
		var err error
		if p, err = makePlan(cfg.seed, count, gap); err != nil {
			return 0, err
		}
		srv, err = startServer()
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}
	before, err := getScrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	mem, pool, freezes := memStats(), dip.PoolStats(), dip.FreezeCount()
	outs := make([]sendOutcome, count)
	times := openLoop(count, serveRate, serveConns, func(i int) bool {
		o := &outs[i]
		resp, err := client.Post(srv.base+"/v1/certify", "application/json", bytes.NewReader(p.distinct[p.sends[i].distinct].body))
		if err != nil {
			o.err = err
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		if err == nil && resp.StatusCode == http.StatusOK {
			err = json.Unmarshal(body, &o.resp)
		}
		o.err = err
		return err == nil && resp.StatusCode == http.StatusOK
	})
	memD, ok200 := memSince(mem), 0
	for _, t := range times {
		if t.ok {
			ok200++
		}
	}
	m := res.metrics
	if cfg.trace {
		m.setGo(memD, ok200)
		m.setPool(pool, ok200)
		m.ratio("dip.freezes", "count/op", float64(dip.FreezeCount()-freezes), float64(ok200), ok200)
	}
	after, err := getScrape(client, srv.base)
	if err != nil {
		return nil, err
	}

	headroom, runMS, err := verifyServe(ctx, res, p, outs)
	if err != nil {
		return nil, err
	}
	hits := 0
	for _, o := range outs {
		if o.resp.CacheHit {
			hits++
		}
	}
	res.expect("cache_hit_share_matches_plan", math.Abs(float64(hits)/float64(count)-p.repeatShare()) <= 0.02,
		"%d of %d requests hit the cache; the plan repeats %d", hits, count, p.repeats)

	lat := make([]float64, count)
	var repeatLat []float64 // planned repeats, failed ones at +Inf
	var hitLat, missLat, lag []float64
	for i, t := range times {
		l := math.Inf(1) // a failed request misses every latency limit
		if t.ok {
			l = msOf(int64(t.latency()))
			if outs[i].resp.CacheHit {
				hitLat = append(hitLat, l)
			} else {
				missLat = append(missLat, l)
			}
		}
		lat[i] = l
		if p.sends[i].kind == kindRepeat {
			repeatLat = append(repeatLat, l)
		}
		lag = append(lag, msOf(int64(t.sent-t.due)))
	}
	if !cfg.trace {
		var elapsed time.Duration
		for _, t := range times {
			elapsed = max(elapsed, t.done)
		}
		m.set("setup_s", "s", median(setups), len(setups))
		m.set("ops_per_s", "1/s", float64(ok200)/elapsed.Seconds(), count)
		m.set("peak_rss_mb", "MB", peakRSSMB(), 1)
		// The median over all requests falls where the repeat and miss
		// latencies meet and moved by up to a third between identical
		// runs; the median of the repeats is the front path p50 is
		// meant to show.
		m.set("latency_p50_ms", "ms", finite(median(repeatLat)), len(repeatLat))
		// run_ms.<p> is the run stage of the protocol's requests, timed
		// in-process without the HTTP layer and the load of the loop.
		for _, proto := range protocols {
			m.set("run_ms."+proto, "ms", median(runMS[proto]), len(runMS[proto]))
		}
		return res, nil
	}

	log := make(requestLog, count)
	for i, t := range times {
		s := p.specs[p.distinct[p.sends[i].distinct].spec]
		log[i] = requestRecord{
			I: i, Protocol: s.proto, Inline: s.inline, N: s.n, Kind: p.sends[i].kind,
			DueMS: msOf(int64(t.due)), SentMS: msOf(int64(t.sent)), DoneMS: msOf(int64(t.done)),
			Status: outs[i].status, CacheHit: outs[i].resp.CacheHit, ServerMS: msOf(outs[i].resp.WallNS),
		}
	}
	res.trace = log
	m.setPercentile("client.latency_p99_ms", "ms", lat, 0.99)
	m.setPercentile("client.lag_ms_p99", "ms", lag, 0.99)
	m.set("client.hit_p50_ms", "ms", median(hitLat), len(hitLat))
	m.set("client.miss_p50_ms", "ms", median(missLat), len(missLat))
	m.set("gen.build_ms", "ms", median(p.buildsMS), len(p.buildsMS))
	headroom.set(m)
	m.setScraped(before, after, p.repeatShare())
	embeds, err := timeEmbeds(p)
	if err != nil {
		return nil, err
	}
	m.set("planar.embed_ms", "ms", median(embeds), len(embeds))
	m.ratio("trace.overhead_frac", "ratio", 0, 0, 0)
	m.note("trace.overhead_frac", "the server is not traced; the two scrapes bracket the timed phase")
	return res, nil
}

// setScraped records the server- and ledger-side metrics from the growth
// of /v1/metricsz between two scrapes.
func (m metrics) setScraped(before, after *scrape, plannedHits float64) {
	stage := func(name, stage string, q float64) {
		h := "certify_stage_ns{stage=" + stage + "}"
		v, n, ok := histQuantile(before.hists[h], after.hists[h], q)
		if !ok {
			m[name] = metric{Unit: "ms", Samples: n, Note: "withheld: too few observations"}
			return
		}
		m.set(name, "ms", v, n)
	}
	stage("serve.admission_ms_p50", "admission", 0.5)
	stage("serve.encode_ms_p50", "encode", 0.5)
	stage("serve.run_ms_p50", "run", 0.5)
	// Only misses reach the run and queue stages, a quarter of the
	// requests: too few for a p99 with ten observations beyond it.
	stage("serve.run_ms_p90", "run", 0.9)
	stage("serve.queue_wait_ms_p90", "queue_wait", 0.9)

	hits, shared := delta(before, after, "cache_hits_total"), delta(before, after, "singleflight_shared_total")
	lookups := hits + shared + delta(before, after, "cache_misses_total")
	m.ratio("serve.cache_hit_ratio", "ratio", hits, lookups, int(lookups))
	m.note("serve.cache_hit_ratio", fmt.Sprintf("planned repeat share %.4f", plannedHits))
	m.ratio("serve.shared_ratio", "ratio", shared, lookups, int(lookups))
	ih := delta(before, after, "instance_cache_hits_total")
	interned := ih + delta(before, after, "instance_cache_misses_total")
	m.ratio("serve.instance_hit_ratio", "ratio", ih, interned, int(interned))
	m.set("serve.shed", "count", delta(before, after, "queue_full_total"), int(lookups))
	m.set("ledger.appends", "count", delta(before, after, "ledger_appends_total"), int(lookups))
	if v, n, ok := histQuantile(before.hists["ledger_batch_flush_ns"], after.hists["ledger_batch_flush_ns"], 0.5); ok {
		m.set("ledger.flush_ms_p50", "ms", v, n)
	}
}

type verdict struct {
	accepted bool
	bits     int
	fp       string
}

// runPasses is how often the output check runs every distinct request
// in-process; run_ms.<p> is the median over passes of the mean time.
const runPasses = 2

// verifyServe checks every 200 response against the others for the same
// request and against serve.RunProtocol run in-process on that request,
// and counts each non-200 or wrong response as failed. It returns the
// largest proof size over the declared bound per protocol, and per
// protocol the mean in-process RunProtocol time in ms of each pass.
func verifyServe(ctx context.Context, res *result, p *plan, outs []sendOutcome) (headrooms, map[string][]float64, error) {
	res.attempted += len(outs)
	got := make([]*verdict, len(p.distinct))
	bad := make([]bool, len(p.distinct))
	for i, o := range outs {
		d := p.sends[i].distinct
		if !res.expect("status_200", o.status == http.StatusOK && o.err == nil, "request %d: status %d: %v", i, o.status, o.err) {
			continue
		}
		v := verdict{o.resp.Accepted, o.resp.ProofSizeBits, o.resp.Fingerprint}
		if got[d] == nil {
			got[d] = &v
		} else if !res.expect("responses_agree", *got[d] == v, "request %d: %+v, earlier response %+v", i, v, *got[d]) {
			bad[d] = true
		}
	}
	headroom := headrooms{}
	passMS := map[string][]float64{}
	for pass := 0; pass < runPasses; pass++ {
		total := map[string]time.Duration{}
		runs := map[string]int{}
		for d, v := range got {
			if v == nil {
				continue
			}
			req := p.distinct[d].req
			inst, err := serve.BuildInstance(&req)
			if err != nil {
				return nil, nil, fmt.Errorf("verify: build: %w", err)
			}
			t0 := time.Now()
			rr, err := serve.RunProtocol(ctx, req.Protocol, inst, req.Seed, nil)
			total[req.Protocol] += time.Since(t0)
			runs[req.Protocol]++
			if err != nil {
				return nil, nil, fmt.Errorf("verify: run %s: %w", req.Protocol, err)
			}
			want := verdict{rr.Accepted, rr.ProofSizeBits, rr.Fingerprint}
			ok := res.expect("matches_in_process", *v == want, "%s request %d: served %+v, in-process %+v", req.Protocol, d, *v, want)
			if pass == 0 {
				ok = res.expect("accepted", v.accepted, "%s request %d rejected a yes-instance", req.Protocol, d) && ok
				dsc, _ := protocol.Get(req.Protocol)
				headroom.add(req.Protocol, v.bits, dsc.ProofSizeBound(inst.G.N(), inst.G.MaxDegree()))
			}
			if !ok {
				bad[d] = true
			}
		}
		for proto, t := range total {
			passMS[proto] = append(passMS[proto], msOf(int64(t))/float64(runs[proto]))
		}
	}
	for i, o := range outs {
		if o.status != http.StatusOK || o.err != nil || bad[p.sends[i].distinct] {
			res.failed++
		}
	}
	return headroom, passMS, nil
}

// timeEmbeds times planar.Embed on each distinct inline instance of the
// rotation protocols: the fallback the server runs because the wire
// format carries no rotation.
func timeEmbeds(p *plan) ([]float64, error) {
	var ms []float64
	for _, s := range p.specs {
		d, _ := protocol.Get(s.proto)
		if !s.inline || d.Witness != protocol.WitnessRotation {
			continue
		}
		inst, err := serve.BuildInstance(&serve.Request{Graph: s.graph})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := planar.Embed(inst.G); err != nil {
			return nil, fmt.Errorf("embed: %w", err)
		}
		ms = append(ms, msOf(int64(time.Since(t0))))
	}
	return ms, nil
}
