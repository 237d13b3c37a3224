package main

// The serve workloads. serve-local drives an in-process serve.Server at
// its default config over loopback HTTP; serve-ring sends the identical
// request stream to the same server with a shard coordinator plus two
// in-process workers over loopback TCP as its Backend.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"gametree/internal/engine"
	"gametree/internal/reqtrace"
	"gametree/internal/serve"
	"gametree/internal/shard"
	"gametree/internal/telemetry"
	"gametree/internal/transport"
)

// Open-loop schedule, as fractions of --seconds: a nominal rate, then a
// rate ladder that stops at the first rate that misses the latency
// limit. The nominal rate is low on purpose: on two CPUs shared by the
// load generator, the server and the ring, queueing at higher rates
// amplifies host noise (at 200 req/s op_p50_ms varied by up to a fifth
// between runs, at 60 req/s by a seventh at most).
const (
	serveConns      = 2 // at most nproc connections, one process
	nominalRate     = 60.0
	nominalFrac     = 0.65
	ladderFrac      = 0.07
	ladderHeadroom  = 4.0 // a failing rung's p99 is capped at this many limits
	ringWorkers     = 2
	ringConvergeMax = 5 * time.Second
)

// ladderRates is the fixed rate ladder above the nominal rate, in
// requests per second.
var ladderRates = []float64{150, 300, 500, 750, 1100}

// ring is a coordinator and its workers, all in this process, talking
// over loopback TCP.
type ring struct {
	coord     *shard.Coordinator
	workers   []*shard.Worker
	fallback  *engine.Pool
	coordRec  *telemetry.Recorder
	workerRec []*telemetry.Recorder
	coordTr   *reqtrace.Tracer
}

func startRing(nproc int, ts *traceSet) (*ring, error) {
	r := &ring{coordRec: telemetry.NewRecorder(), coordTr: ts.tracer(procRing, "coordinator")}
	procs := make([]int, ringWorkers)
	wnets := make([]*transport.TCP, ringWorkers)
	peers := map[int]string{}
	for i := range procs {
		procs[i] = i + 1
		tr, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Local: []int{i + 1}, Codec: shard.Codec{}})
		if err != nil {
			for _, w := range wnets[:i] {
				w.Close()
			}
			return nil, fmt.Errorf("ring worker transport: %w", err)
		}
		wnets[i] = tr
		peers[i+1] = tr.Addr()
	}
	cnet, err := transport.New(transport.Config{Listen: "127.0.0.1:0", Local: []int{0}, Peers: peers, Codec: shard.Codec{}})
	if err != nil {
		for _, w := range wnets {
			w.Close()
		}
		return nil, fmt.Errorf("ring coordinator transport: %w", err)
	}
	peers[0] = cnet.Addr()
	for i, tr := range wnets {
		tr.SetPeer(0, cnet.Addr())
		rec := telemetry.NewRecorder()
		r.workerRec = append(r.workerRec, rec)
		w := shard.NewWorker(shard.WorkerConfig{
			Net: tr, Self: i + 1, Coordinator: 0, Workers: procs,
			PoolWorkers: nproc, TableEntries: tableEntries, AdvertiseAddr: tr.Addr(),
			Telemetry: rec, Tracer: ts.tracer(i+1, "worker"),
		})
		w.Start()
		r.workers = append(r.workers, w)
	}
	r.fallback = engine.NewPool(nproc, nil, nil)
	r.coord = shard.NewCoordinator(shard.Config{
		Net: cnet, Self: 0, Workers: procs, Fallback: r.fallback, PeerAddrs: peers,
		Telemetry: r.coordRec, Tracer: r.coordTr,
	})
	r.coord.Start()
	// Converged: every worker has adopted the coordinator's epoch and the
	// coordinator has a ping echo (a live round trip) from every worker.
	deadline := time.Now().Add(ringConvergeMax)
	for {
		ok := len(r.coord.ClockOffsets()) == ringWorkers
		for _, w := range r.workers {
			ok = ok && w.Epoch() > 0
		}
		if ok {
			return r, nil
		}
		if time.Now().After(deadline) {
			r.close()
			return nil, errors.New("ring membership did not converge")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (r *ring) close() {
	r.coord.Close()
	for _, w := range r.workers {
		w.Close()
	}
	r.fallback.Close()
}

// serveStack is one server under test: a serve.Server at its default
// config, listening on loopback, with its client.
type serveStack struct {
	srv    *serve.Server
	ring   *ring
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServe(nproc int, withRing bool, ts *traceSet) (*serveStack, error) {
	s := &serveStack{done: make(chan struct{})}
	var cfg serve.Config
	if withRing {
		r, err := startRing(nproc, ts)
		if err != nil {
			return nil, err
		}
		s.ring = r
		cfg.Backend = r.coord
		cfg.Tracer = r.coordTr
	} else {
		cfg.Tracer = ts.tracer(procServe, "serve")
	}
	s.srv = serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Drain(context.Background()) // closes the pools; nothing is in flight
		s.closeBackend()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/search"
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	return s, nil
}

func (s *serveStack) closeBackend() {
	if s.ring != nil {
		s.ring.close()
	}
}

func (s *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.done
	_ = s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
	s.closeBackend()
}

// searchReply is the part of the /v1/search response the benchmark reads.
type searchReply struct {
	Value     int32   `json:"value"`
	QueueMs   float64 `json:"queue_ms"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
}

// post sends one search request over loopback HTTP. trace, when not
// empty, is sent as X-GT-Trace so the server records its stage spans
// under the benchmark's operation id.
func (s *serveStack) post(root uint64, trace string) (searchReply, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(serveBody(root)))
	if err != nil {
		return searchReply{}, err
	}
	if trace != "" {
		req.Header.Set("X-GT-Trace", trace)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return searchReply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return searchReply{}, err
	}
	return decodeReply(resp.StatusCode, body)
}

func decodeReply(status int, body []byte) (searchReply, error) {
	if status != http.StatusOK {
		return searchReply{}, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return searchReply{}, fmt.Errorf("decode reply: %w", err)
	}
	return r, nil
}

// serveWorkload holds one run's request stream and the values returned.
type serveWorkload struct {
	stream []uint64
	hot    []uint64
	values []int32
	got    []bool
	mu     sync.Mutex // guards replies
	// replies collects per-request serve detail for the traced run.
	replies []searchReply
}

// streamLen is the number of requests the whole schedule can send.
func streamLen(window time.Duration) int {
	n := int(nominalRate * window.Seconds() * nominalFrac)
	for _, r := range ladderRates {
		n += int(r * window.Seconds() * ladderFrac)
	}
	return n
}

func newServeWorkload(seed int64, n int) *serveWorkload {
	stream, hot := serveStream(seed, n)
	return &serveWorkload{stream: stream, hot: hot, values: make([]int32, n), got: make([]bool, n)}
}

func (sw *serveWorkload) op(s *serveStack, ts *traceSet, phase int) func(int) error {
	return func(i int) error {
		t := time.Now()
		id := ""
		if ts != nil {
			id = traceID(phase, i)
		}
		r, err := s.post(sw.stream[i], id)
		ts.span(id, "bench:http", t)
		if err != nil {
			return err
		}
		sw.values[i], sw.got[i] = r.Value, true
		if ts != nil {
			sw.mu.Lock()
			sw.replies = append(sw.replies, r)
			sw.mu.Unlock()
		}
		return nil
	}
}

// warm sends every hot key once, so the timed window starts with the
// result cache as a long-running server would have it.
func (sw *serveWorkload) warm(s *serveStack) error {
	for _, root := range sw.hot {
		if _, err := s.post(root, ""); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// check compares every answered request with a sequential search of its
// root; each distinct root is searched once.
func (sw *serveWorkload) check(rep *report, nproc int) {
	first := map[uint64]int{}
	var idxs []int
	for i, ok := range sw.got {
		if !ok {
			continue
		}
		if _, seen := first[sw.stream[i]]; !seen {
			first[sw.stream[i]] = i
			idxs = append(idxs, i)
		}
	}
	want := make(map[uint64]int32, len(idxs))
	var mu sync.Mutex
	checkParallel(idxs, nproc, func(i int) error {
		v := engine.Search(randomRoot(sw.stream[i]), serveDepth).Value
		mu.Lock()
		want[sw.stream[i]] = v
		mu.Unlock()
		return nil
	})
	for i, ok := range sw.got {
		if ok && sw.values[i] != want[sw.stream[i]] {
			rep.mismatch("serve: root %d depth %d: got %d, sequential search says %d", sw.stream[i], serveDepth, sw.values[i], want[sw.stream[i]])
		}
	}
}

// rung is one open-loop rate of the ladder.
type rung struct {
	rate float64
	p99  float64
	pass bool
	w    window
}

func evalRung(rate float64, w window) rung {
	lat := w.latenciesMs()
	due := len(w.samples) + w.inFlight + w.backlog
	p99 := quantile(lat, 0.99)
	pass := w.failed() == 0 && w.backlog*100 <= due && p99 <= sloMs
	return rung{rate: rate, p99: p99, pass: pass, w: w}
}

// qpsAtSLO is the highest rate whose p99 stays within the limit,
// interpolated between the last passing and first failing rung of the
// ladder. A failing rung's p99 is capped at ladderHeadroom limits. When
// even the first rung fails, the rate is scaled down by how far its p99
// overshot; when every rung passes, the top rate is a lower bound.
func qpsAtSLO(rungs []rung) (float64, string) {
	// A rung that failed on backlog or failures, not on p99, counts as
	// fully overloaded.
	capP := func(r rung) float64 {
		if !r.pass && r.p99 <= sloMs {
			return ladderHeadroom * sloMs
		}
		return math.Min(r.p99, ladderHeadroom*sloMs)
	}
	if !rungs[0].pass {
		return rungs[0].rate * sloMs / capP(rungs[0]), "first rung missed the limit"
	}
	for i := 1; i < len(rungs); i++ {
		if rungs[i].pass {
			continue
		}
		a, b := rungs[i-1], rungs[i]
		pb := capP(b)
		if pb <= a.p99 {
			return a.rate, "between rungs"
		}
		return a.rate + (b.rate-a.rate)*(sloMs-a.p99)/(pb-a.p99), fmt.Sprintf("between %.0f and %.0f req/s", a.rate, b.rate)
	}
	top := rungs[len(rungs)-1]
	return top.rate, "every rung passed: a lower bound"
}

// runServeE2E measures one serve workload.
func runServeE2E(cfg config, withRing bool) (*report, error) {
	rep := &report{}
	win := cfg.window(1)
	sw := newServeWorkload(cfg.seed, streamLen(win))
	s, setupS, err := buildTimed(func() (*serveStack, error) { return startServe(cfg.nproc, withRing, nil) }, (*serveStack).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := sw.warm(s); err != nil {
		return nil, err
	}
	op := sw.op(s, nil, 0)
	m := startStealMonitor()
	nominal := openLoop(nominalRate, time.Duration(float64(win)*nominalFrac), serveConns, 0, op)
	m.finish()
	rungs := []rung{evalRung(nominalRate, nominal)}
	next := nominal.next
	for _, rate := range ladderRates {
		if !rungs[len(rungs)-1].pass {
			break
		}
		w := openLoop(rate, time.Duration(float64(win)*ladderFrac), serveConns, next, op)
		next = w.next
		rungs = append(rungs, evalRung(rate, w))
	}
	rss := maxRSSMB()
	for _, r := range rungs {
		rep.count(r.w)
		rep.addInfo(fmt.Sprintf("rung.%.0f.p99_ms", r.rate), "ms", r.p99, fmt.Sprintf("pass=%v n=%d backlog=%d in_flight=%d", r.pass, len(r.w.samples), r.w.backlog, r.w.inFlight))
	}
	lat := nominal.latenciesMs()
	n := len(lat)
	qps, how := qpsAtSLO(rungs)
	rep.addE2E("setup_s", "s", setupS, fmt.Sprintf("median of %d builds", setupReps))
	rep.addE2E("ops_per_s", "1/s", float64(n)/nominal.elapsed.Seconds(), fmt.Sprintf("delivered at the nominal %.0f req/s, to the last completion", nominalRate))
	steady, _, note := steadyPart(nominal, m)
	steadyLat := window{samples: steady}.latenciesMs()
	rep.addE2E("op_p50_ms", "ms", quantile(steadyLat, 0.5), fmt.Sprintf("n=%d, from due time, from %s", len(steadyLat), note))
	rep.addInfo("op_p90_ms", "ms", quantile(lat, 0.9), fmt.Sprintf("n=%d, %d beyond", n, n/10))
	rep.addInfo("op_p99_ms", "ms", quantile(lat, 0.99), fmt.Sprintf("n=%d, %d beyond, at %.0f req/s", n, n/100, nominalRate))
	rep.addInfo("qps_at_slo", "1/s", qps, fmt.Sprintf("p99 <= %.0f ms, no backlog, no failures; %s", sloMs, how))
	rep.addE2E("max_rss_mb", "MB", rss, "peak resident set of the benchmark process")
	loadInfo(rep, nominal)
	if r := s.ring; r != nil {
		c := r.coord
		rep.addInfo("ring.epoch", "count", float64(c.Epoch()), "membership epoch; starts at 1, bumps on every death and rejoin")
		rep.addInfo("ring.reissues", "count", float64(r.coordRec.Snapshot().Total.ShardReissues), "")
		rep.addInfo("ring.fenced", "count", float64(c.FencedResults()), "")
		rep.addInfo("ring.degraded_tasks", "count", float64(c.DegradedTasks()), "leaves computed on the fallback pool")
	}
	sw.check(rep, cfg.nproc)
	return rep, nil
}
