package serve

// The serving layer's half of the request-trace contract: header
// adoption and echo, 1-in-N sampling, the request/queue/search spans,
// and the JSONL access log.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// syncBuf is an io.Writer safe to read while the server writes.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func tracerSpans(tr *reqtrace.Tracer, trace, stage string) []reqtrace.Span {
	spans, _ := tr.Spans()
	var out []reqtrace.Span
	for _, s := range spans {
		if s.Trace == trace && s.Stage == stage {
			out = append(out, s)
		}
	}
	return out
}

// TestTraceHeaderAdopted: an inbound X-GT-Trace is honoured regardless
// of sampling, echoed on the response, and stamps the request, queue and
// search spans — on either endpoint.
func TestTraceHeaderAdopted(t *testing.T) {
	for _, tc := range []struct {
		path, trace string
		req         any
	}{
		{"/v1/search", "tr-serve-1", SearchRequest{Game: "ttt", Depth: 3}},
		{"/v1/solve", "tr-solve-1", SolveRequest{Game: "nim", Position: "1,2,4"}},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			tr := reqtrace.New(0, "single", 0, 0) // sampling off: only the header opts in
			_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr})

			body, _ := json.Marshal(tc.req)
			req, _ := http.NewRequest(http.MethodPost, ts.URL+tc.path, bytes.NewReader(body))
			req.Header.Set("X-GT-Trace", tc.trace)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if got := resp.Header.Get("X-GT-Trace"); got != tc.trace {
				t.Fatalf("echoed trace header: got %q, want %s", got, tc.trace)
			}
			reqs := tracerSpans(tr, tc.trace, reqtrace.StageRequest)
			if len(reqs) != 1 {
				t.Fatalf("request spans: got %d, want 1", len(reqs))
			}
			if !strings.HasPrefix(reqs[0].Note, "200") {
				t.Errorf("request span note: got %q, want 200 ...", reqs[0].Note)
			}
			if n := len(tracerSpans(tr, tc.trace, reqtrace.StageQueue)); n != 1 {
				t.Errorf("queue spans: got %d, want 1", n)
			}
			// The search span is recorded by the detached work goroutine
			// and can trail the response.
			waitFor(t, "search span", func() bool {
				return len(tracerSpans(tr, tc.trace, reqtrace.StageSearch)) == 1
			})
		})
	}
}

// TestTraceEngineSpans: with the tracer attached to the recorder (as
// gtserve does), a sampled request's engine split spans land in the same
// dump as its request and search spans, under its trace ID and inside
// its search span. serve.New alone attaches nothing: the same traced
// request on a recorder without the tracer records no engine span.
func TestTraceEngineSpans(t *testing.T) {
	search := SearchRequest{Game: "random", Position: "42:6", Depth: 7}
	traced := func(url, id string) {
		t.Helper()
		body, _ := json.Marshal(search)
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/search", bytes.NewReader(body))
		req.Header.Set("X-GT-Trace", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}

	rec := telemetry.NewRecorder()
	tr := reqtrace.New(0, "single", 0, 1<<16)
	rec.SetTracer(tr)
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Telemetry: rec, Tracer: tr})
	traced(ts.URL, "tr-engine")
	waitFor(t, "search span", func() bool {
		return len(tracerSpans(tr, "tr-engine", reqtrace.StageSearch)) == 1
	})
	if n := len(tracerSpans(tr, "tr-engine", reqtrace.StageRequest)); n != 1 {
		t.Fatalf("request spans: got %d, want 1", n)
	}
	outer := tracerSpans(tr, "tr-engine", reqtrace.StageSearch)[0]
	splits := tracerSpans(tr, "tr-engine", reqtrace.StageSplit)
	if len(splits) == 0 {
		t.Fatal("no engine split spans under the request's trace ID")
	}
	if joins := tracerSpans(tr, "tr-engine", reqtrace.StageJoin); len(joins) != len(splits) {
		t.Fatalf("%d join spans for %d splits", len(joins), len(splits))
	}
	for _, sp := range splits {
		if sp.StartNs < outer.StartNs || sp.StartNs+sp.DurNs > outer.StartNs+outer.DurNs {
			t.Fatalf("split %+v outside search span %+v", sp, outer)
		}
	}

	bare := reqtrace.New(0, "single", 0, 1<<16)
	_, ts2 := newTestServer(t, Config{Workers: 2, Pools: 1, Telemetry: telemetry.NewRecorder(), Tracer: bare})
	traced(ts2.URL, "tr-bare")
	waitFor(t, "search span", func() bool {
		return len(tracerSpans(bare, "tr-bare", reqtrace.StageSearch)) == 1
	})
	if n := len(tracerSpans(bare, "tr-bare", reqtrace.StageSplit)); n != 0 {
		t.Fatalf("serve.New attached the tracer: %d split spans", n)
	}
}

// TestTraceSampling: sample 1 mints an ID for headerless requests;
// sample 0 leaves them untraced with zero recorded spans.
func TestTraceSampling(t *testing.T) {
	tr := reqtrace.New(0, "single", 1, 0)
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr})
	code, _, _, hdr := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	id := hdr.Get("X-GT-Trace")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Fatalf("minted trace ID %q, want 16 hex digits", id)
	}
	if n := len(tracerSpans(tr, id, reqtrace.StageRequest)); n != 1 {
		t.Errorf("request spans for minted ID: got %d, want 1", n)
	}

	off := reqtrace.New(0, "single", 0, 0)
	_, ts2 := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: off})
	code, _, _, hdr = postSearch(t, ts2.URL, SearchRequest{Game: "ttt", Depth: 2})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := hdr.Get("X-GT-Trace"); got != "" {
		t.Errorf("unsampled response carries trace header %q", got)
	}
	if spans, _ := off.Spans(); len(spans) != 0 {
		t.Errorf("unsampled requests recorded %d spans", len(spans))
	}
}

// TestAccessLog: one JSON line per request — leader, cache hit and a
// 4xx — each with outcome, latency and status, on either endpoint.
func TestAccessLog(t *testing.T) {
	for _, tc := range []struct {
		path      string
		good, bad any
		game      string
		depth     int
	}{
		{"/v1/search", SearchRequest{Game: "ttt", Depth: 2}, SearchRequest{Game: "nope", Depth: 2}, "ttt", 2},
		{"/v1/solve", SolveRequest{Game: "nim", Position: "1,2,4"}, SolveRequest{Game: "nope"}, "nim", 0},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			tr := reqtrace.New(0, "single", 1, 0)
			var buf syncBuf
			_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr, AccessLog: &buf})

			if code, _, _ := postJSON(t, ts.URL+tc.path, tc.good); code != 200 {
				t.Fatalf("leader status %d", code)
			}
			code, _, body := postJSON(t, ts.URL+tc.path, tc.good)
			var cached struct {
				Cached bool `json:"cached"`
			}
			_ = json.Unmarshal(body, &cached)
			if code != 200 || !cached.Cached {
				t.Fatalf("expected cache hit, got status %d cached=%v", code, cached.Cached)
			}
			if code, _, _ := postJSON(t, ts.URL+tc.path, tc.bad); code != http.StatusBadRequest {
				t.Fatalf("bad game status %d", code)
			}

			waitFor(t, "3 access-log lines", func() bool {
				return strings.Count(buf.String(), "\n") == 3
			})
			type line struct {
				Trace   string `json:"trace"`
				Game    string `json:"game"`
				Depth   int    `json:"depth"`
				Outcome string `json:"outcome"`
				QueueNs int64  `json:"queue_ns"`
				TotalNs int64  `json:"total_ns"`
				Status  int    `json:"status"`
			}
			var lines []line
			for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
				var l line
				if err := json.Unmarshal([]byte(raw), &l); err != nil {
					t.Fatalf("bad access-log line %q: %v", raw, err)
				}
				lines = append(lines, l)
			}
			if lines[0].Outcome != "search" || lines[0].Status != 200 || lines[0].Game != tc.game ||
				lines[0].Depth != tc.depth || lines[0].Trace == "" || lines[0].TotalNs <= 0 {
				t.Errorf("leader line: %+v", lines[0])
			}
			if lines[1].Outcome != "cache-hit" || lines[1].Status != 200 {
				t.Errorf("cache-hit line: %+v", lines[1])
			}
			if lines[2].Status != http.StatusBadRequest || lines[2].Outcome != "" {
				t.Errorf("bad-request line: %+v", lines[2])
			}
		})
	}
}

// TestGTTraceEndpoint: the mux serves /debug/gttrace with the process
// dump (and an empty dump when tracing is off).
func TestGTTraceEndpoint(t *testing.T) {
	tr := reqtrace.New(0, "single", 1, 0)
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1, Tracer: tr})
	if code, _, _, _ := postSearch(t, ts.URL, SearchRequest{Game: "ttt", Depth: 2}); code != 200 {
		t.Fatalf("search failed")
	}
	resp, err := http.Get(ts.URL + "/debug/gttrace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d reqtrace.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if d.Role != "single" || d.Sample != 1 || len(d.Spans) == 0 {
		t.Errorf("dump: role=%q sample=%d spans=%d", d.Role, d.Sample, len(d.Spans))
	}
}
