package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gametree/internal/engine"
)

// blockPos is a test position whose leaf evaluation blocks until its
// gate channel is closed, making coalescing/admission/drain timing fully
// deterministic: a search is provably in flight until the test releases
// it.
type blockPos struct {
	id   uint64
	gate chan struct{}
}

func (p blockPos) Moves() []engine.Position { return nil }
func (p blockPos) Evaluate() int32 {
	<-p.gate
	return int32(p.id % 100)
}
func (p blockPos) Hash() uint64 { return p.id }

// blockRegistry hands out gates per position id.
type blockRegistry struct {
	mu    sync.Mutex
	gates map[uint64]chan struct{}
}

func (r *blockRegistry) gate(id uint64) chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gates == nil {
		r.gates = make(map[uint64]chan struct{})
	}
	if r.gates[id] == nil {
		r.gates[id] = make(chan struct{})
	}
	return r.gates[id]
}

// release opens gate id and forgets it, so the next request for id —
// the same test run again under -count — blocks on a fresh gate.
func (r *blockRegistry) release(id uint64) {
	g := r.gate(id)
	r.mu.Lock()
	delete(r.gates, id)
	r.mu.Unlock()
	close(g)
}

func init() {
	// The "block" game: position string is a decimal id; every search of
	// id N blocks until the test releases gate N.
	RegisterGame("block", func(position string) (engine.Position, string, error) {
		var id uint64
		if _, err := fmt.Sscanf(position, "%d", &id); err != nil {
			return nil, "", err
		}
		return blockPos{id: id, gate: testGates.gate(id)}, position, nil
	})
}

var testGates blockRegistry

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

func postSearch(t *testing.T, url string, req SearchRequest) (int, SearchResponse, errorResponse, http.Header) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok SearchResponse
	var fail errorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else if err := dec.Decode(&fail); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ok, fail, resp.Header
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// postJSON posts req to url and returns the status, headers and the
// whole body (for a solve stream, every frame).
func postJSON(t *testing.T, url string, req any) (int, http.Header, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, resp.Header, out
}

// endpoint is one request-path variant the admission tests drive.
type endpoint struct {
	name, path string
	stream     bool
}

var endpoints = []endpoint{
	{"search", "/v1/search", false},
	{"solve", "/v1/solve", false},
	{"solve-stream", "/v1/solve", true},
}

// post sends one request for a game position under a deadline (0 = the
// server default).
func (ep endpoint) post(t *testing.T, url, game, position string, deadlineMs int) (int, http.Header) {
	req := map[string]any{"game": game, "position": position, "deadline_ms": deadlineMs}
	if ep.stream {
		req["stream"] = true
	}
	code, hdr, _ := postJSON(t, url+ep.path, req)
	return code, hdr
}

func TestSearchTTTExactValue(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	// The empty tic-tac-toe board searched to the full depth is a draw.
	code, ok, fail, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 9})
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, fail)
	}
	if ok.Value != 0 {
		t.Fatalf("empty ttt board value %d, want 0 (draw)", ok.Value)
	}
	if ok.Cached || ok.Coalesced {
		t.Fatalf("first search flagged cached=%v coalesced=%v", ok.Cached, ok.Coalesced)
	}
	// The identical request is a cache hit with the same value.
	code, again, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 9})
	if code != http.StatusOK || !again.Cached || again.Value != 0 {
		t.Fatalf("repeat: status %d cached=%v value=%d", code, again.Cached, again.Value)
	}
	if again.Nodes != ok.Nodes {
		t.Fatalf("cached nodes %d != original %d", again.Nodes, ok.Nodes)
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 1, MaxDepth: 8})
	for _, tc := range []SearchRequest{
		{Game: "nosuch", Depth: 3},
		{Game: "ttt", Position: "XX", Depth: 3},
		{Game: "ttt", Depth: 9}, // beyond MaxDepth 8
		{Game: "ttt", Depth: -1},
		{Game: "connect4", Position: "7", Depth: 3}, // column out of range
		{Game: "random", Position: "nan", Depth: 3}, // bad seed
	} {
		code, _, _, _ := postSearch(t, ts.URL, tc)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc, code)
		}
	}
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "connect4", Position: "333", Depth: 4}); code != http.StatusOK {
		t.Errorf("valid connect4 request got %d", code)
	}
}

func TestCoalescingSharesOneSearch(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	const id = 1001
	results := make(chan SearchResponse, 3)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		code, ok, fail, _ := postSearch(t, ts.URL, SearchRequest{Game: "block", Position: fmt.Sprint(id), Depth: 0, DeadlineMs: 5000})
		if code != http.StatusOK {
			t.Errorf("status %d: %+v", code, fail)
			return
		}
		results <- ok
	}
	wg.Add(1)
	go post()
	// Wait until the leader's search is provably running, then pile on.
	waitFor(t, "leader admitted", func() bool { return s.Stats()["admitted"] == 1 })
	wg.Add(2)
	go post()
	go post()
	waitFor(t, "joiners coalesced", func() bool { return s.Stats()["coalesced"] == 2 })
	testGates.release(id)
	wg.Wait()
	close(results)
	var coalesced int
	for r := range results {
		if r.Value != id%100 {
			t.Errorf("value %d, want %d", r.Value, id%100)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != 2 {
		t.Errorf("coalesced responses %d, want 2", coalesced)
	}
	if st := s.Stats(); st["admitted"] != 1 {
		t.Errorf("admitted %d searches for 3 identical requests", st["admitted"])
	}
}

func TestOverloadShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1, QueueDepth: 1})
	// Occupy the only pool.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "block", Position: "2001", Depth: 0, DeadlineMs: 5000})
		if code != http.StatusOK {
			t.Errorf("occupier status %d", code)
		}
	}()
	waitFor(t, "pool occupied", func() bool { return s.Stats()["admitted"] == 1 })
	// Fill the single queue slot with a second distinct position.
	wg.Add(1)
	go func() {
		defer wg.Done()
		code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "block", Position: "2002", Depth: 0, DeadlineMs: 5000})
		if code != http.StatusOK {
			t.Errorf("queued status %d", code)
		}
	}()
	waitFor(t, "queue occupied", func() bool { return s.queued.Load() == 1 })
	// A third distinct leader, on either endpoint, must be shed
	// immediately with 429.
	for i, ep := range endpoints {
		before := s.Stats()["rejected_queue"]
		code, hdr := ep.post(t, ts.URL, "block", fmt.Sprint(2003+i), 5000)
		if code != http.StatusTooManyRequests {
			t.Fatalf("%s: status %d, want 429", ep.name, code)
		}
		if hdr.Get("Retry-After") == "" {
			t.Errorf("%s: 429 without Retry-After", ep.name)
		}
		if s.Stats()["rejected_queue"] == before {
			t.Errorf("%s: rejected_queue counter not bumped", ep.name)
		}
	}
	testGates.release(2001)
	testGates.release(2002)
	wg.Wait()
}

func TestRequestDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	done := make(chan int, 1)
	go func() {
		code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "block", Position: "3001", Depth: 0, DeadlineMs: 50})
		done <- code
	}()
	select {
	case code := <-done:
		if code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadline did not fire")
	}
	if s.Stats()["deadline_exceeded"] == 0 {
		t.Error("deadline_exceeded counter not bumped")
	}
	// The abandoned search still holds the only pool, so a request on
	// either endpoint spends its deadline waiting for one: 503.
	for i, ep := range endpoints {
		before := s.Stats()["deadline_exceeded"]
		if code, _ := ep.post(t, ts.URL, "block", fmt.Sprint(3002+i), 50); code != http.StatusServiceUnavailable {
			t.Errorf("%s: pool wait past the deadline: status %d, want 503", ep.name, code)
		}
		if s.Stats()["deadline_exceeded"] == before {
			t.Errorf("%s: deadline_exceeded counter not bumped", ep.name)
		}
	}
	testGates.release(3001) // unblock the abandoned search so Drain can finish
}

func TestDrainAnswersInflightAndShedsNew(t *testing.T) {
	// The in-flight request runs on each endpoint in turn; block
	// positions wedge a solve in Evaluate just as they wedge a search.
	for i, inflightEP := range endpoints {
		t.Run(inflightEP.name, func(t *testing.T) {
			id := fmt.Sprint(4001 + 10*i)
			s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
			inflight := make(chan int, 1)
			go func() {
				code, _ := inflightEP.post(t, ts.URL, "block", id, 5000)
				inflight <- code
			}()
			waitFor(t, "search in flight", func() bool { return s.Stats()["admitted"] == 1 })
			drained := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				drained <- s.Drain(ctx)
			}()
			waitFor(t, "draining visible", func() bool {
				resp, err := http.Get(ts.URL + "/healthz")
				if err != nil {
					return false
				}
				defer resp.Body.Close()
				return resp.StatusCode == http.StatusServiceUnavailable
			})
			// New requests are shed with 503 while the old one is still running.
			for _, ep := range endpoints {
				code, _ := ep.post(t, ts.URL, "block", "4002", 0)
				if code != http.StatusServiceUnavailable {
					t.Fatalf("%s during drain: status %d, want 503", ep.name, code)
				}
			}
			select {
			case err := <-drained:
				t.Fatalf("drain returned %v with a request still in flight", err)
			default:
			}
			testGates.release(4001 + 10*uint64(i))
			if code := <-inflight; code != http.StatusOK {
				t.Fatalf("in-flight request answered %d, want 200", code)
			}
			if err := <-drained; err != nil {
				t.Fatalf("drain: %v", err)
			}
			// Drain is idempotent and the pools are closed.
			if err := s.Drain(context.Background()); err != nil {
				t.Fatalf("second drain: %v", err)
			}
		})
	}
}

func TestDrainGraceCancelsSearches(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	inflight := make(chan int, 1)
	go func() {
		// Never released: only the drain grace expiry can end this search.
		code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "block", Position: "5001", Depth: 1, DeadlineMs: 30000})
		inflight <- code
	}()
	waitFor(t, "search in flight", func() bool { return s.Stats()["admitted"] == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("drain err %v, want deadline exceeded", err)
	}
	// The cancelled search still produced a response — 5xx, not a drop.
	select {
	case code := <-inflight:
		if code != http.StatusServiceUnavailable && code != http.StatusGatewayTimeout {
			t.Fatalf("cancelled in-flight request answered %d, want 503/504", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request never answered")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	s := New(Config{Workers: 1, Pools: 1, CacheEntries: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	c := s.cache
	c.put("a", engine.Result{Value: 1})
	c.put("b", engine.Result{Value: 2})
	c.put("c", engine.Result{Value: 3}) // evicts a
	if _, ok := c.get("a"); ok {
		t.Error("a should have been evicted")
	}
	if r, ok := c.get("b"); !ok || r.Value != 2 {
		t.Error("b lost")
	}
	c.put("d", engine.Result{Value: 4}) // evicts c (b was just used)
	if _, ok := c.get("c"); ok {
		t.Error("c should have been evicted")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("b lost after second eviction")
	}
}

func TestMetricsEndpointHasServeFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "random", Position: "77", Depth: 4}); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, family := range []string{
		"gametree_serve_requests_total",
		"gametree_serve_admitted_total 1",
		"gametree_serve_latency_ns_count",
		"gametree_serve_queue_wait_ns_count",
		"gametree_nodes_total", // engine telemetry shares the endpoint
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 3})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["pools"].(float64) != 3 {
		t.Fatalf("healthz %+v", h)
	}
}

func TestParsePositionKeys(t *testing.T) {
	for _, tc := range []struct {
		game, pos, wantKey string
	}{
		{"ttt", "", "ttt|........."},
		{"ttt", "xox.o..x.", "ttt|XOX.O..X."},
		{"connect4", "33", "connect4|33"},
		{"random", "42", "random|42:5"},
		{"random", "042:7", "random|42:7"},
	} {
		_, key, err := ParsePosition(tc.game, tc.pos)
		if err != nil {
			t.Errorf("%s/%s: %v", tc.game, tc.pos, err)
			continue
		}
		if key != tc.wantKey {
			t.Errorf("%s/%s: key %q, want %q", tc.game, tc.pos, key, tc.wantKey)
		}
	}
}

// TestCachedSearchAllocs guards the allocation count of a cached
// /v1/search request through the handler tree — the path the open-loop
// serve workloads spend most requests on. The bound includes the
// recorder and request the loop builds per call.
func TestCachedSearchAllocs(t *testing.T) {
	s := New(Config{Workers: 1, Pools: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()
	h := s.Handler()
	const body = `{"game":"ttt","depth":3}`
	serve := func() int {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		return rr.Code
	}
	if code := serve(); code != http.StatusOK {
		t.Fatalf("warm-up status %d", code)
	}
	allocs := testing.AllocsPerRun(200, func() { serve() })
	t.Logf("cached /v1/search: %.0f allocs/request", allocs)
	if s.Stats()["cache_hits"] < 200 {
		t.Fatalf("cache hits %d: the loop did not exercise the cached path", s.Stats()["cache_hits"])
	}
	if raceBuild {
		t.Skip("allocation bound not enforced under the race detector")
	}
	const maxAllocs = 34 // the count before the endpoints shared one pipeline
	if allocs > maxAllocs {
		t.Fatalf("cached /v1/search: %.0f allocs/request, want at most %d", allocs, maxAllocs)
	}
}
