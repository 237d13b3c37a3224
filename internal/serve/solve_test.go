package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gametree/internal/engine"
)

// panicNext arms the "panic-once" game: the next Moves call on one of
// its positions panics, and disarms it.
var panicNext atomic.Bool

// panicOncePos is a nim position whose Moves panics while panicNext is
// armed — a worker panic in the middle of a solver descent.
type panicOncePos struct{ engine.Position }

func (p panicOncePos) Moves() []engine.Position {
	if panicNext.CompareAndSwap(true, false) {
		panic("boom")
	}
	return p.Position.Moves()
}

func init() {
	RegisterGame("panic-once", func(position string) (engine.Position, string, error) {
		pos, canon, err := parseNimPosition(position)
		return panicOncePos{pos}, canon, err
	})
}

func postSolve(t *testing.T, url string, req SolveRequest) (int, SolveResponse, errorResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok SolveResponse
	var fail errorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else if err := dec.Decode(&fail); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ok, fail
}

// TestSolveVerdicts checks exact Sprague-Grundy verdicts over the wire:
// nim with nonzero xor is proven, zero xor disproven; same for Kayles
// Grundy values.
func TestSolveVerdicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	cases := []struct {
		game, pos string
		proven    bool
	}{
		{"nim", "1,2,3", false}, // 1^2^3 = 0
		{"nim", "1,2,4", true},
		{"nim", "5,5", false},
		{"nim", "7", true},
		{"kayles", "1", true},
		{"kayles", "3,2,1", false}, // 3^2^1 = 0 in Grundy values for rows ≤ 3
		{"kayles", "5,6", true},    // 4^3 = 7
	}
	for _, tc := range cases {
		code, ok, fail := postSolve(t, ts.URL, SolveRequest{Game: tc.game, Position: tc.pos})
		if code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %+v", tc.game, tc.pos, code, fail)
		}
		want := "disproven"
		if tc.proven {
			want = "proven"
		}
		if ok.Verdict != want {
			t.Fatalf("%s %s: verdict %q, want %q", tc.game, tc.pos, ok.Verdict, want)
		}
		if tc.proven && ok.PN != 0 {
			t.Fatalf("%s %s: proven with pn=%d", tc.game, tc.pos, ok.PN)
		}
		if !tc.proven && ok.DN != 0 {
			t.Fatalf("%s %s: disproven with dn=%d", tc.game, tc.pos, ok.DN)
		}
	}

	// Identical repeat: served from the solve cache.
	code, again, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"})
	if code != http.StatusOK || !again.Cached || again.Verdict != "proven" {
		t.Fatalf("repeat: status %d cached=%v verdict=%q", code, again.Cached, again.Verdict)
	}

	// Heap permutations canonicalize to one key: also a cache hit.
	code, perm, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "4 1 2"})
	if code != http.StatusOK || !perm.Cached {
		t.Fatalf("permuted heaps missed the cache: status %d cached=%v", code, perm.Cached)
	}
}

// TestSolveValidation covers the 4xx/501 paths.
func TestSolveValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	for _, tc := range []SolveRequest{
		{Game: "nosuch", Position: "1"},
		{Game: "nim", Position: "x,2"},
		{Game: "nim", Position: ""},
		{Game: "kayles", Position: "1,-2"},
		{Game: "nim", Position: "9999"}, // heap beyond cap
	} {
		code, _, _ := postSolve(t, ts.URL, tc)
		if code != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestSolveBackend501 pins that a shard-backend deployment refuses
// solves explicitly instead of panicking on nil pools.
func TestSolveBackend501(t *testing.T) {
	_, ts := newTestServer(t, Config{Pools: 1, Backend: &fakeBackend{}})
	code, _, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"})
	if code != http.StatusNotImplemented {
		t.Fatalf("status %d (%+v), want 501", code, fail)
	}
}

// TestSolveDeadlinePartialResume: a tiny node budget stops the solve
// with a 200 partial (never 504), parks the tree, and the repeat
// request resumes it — visible as resumed=true and continued counters.
func TestSolveDeadlinePartialResume(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	req := SolveRequest{Game: "nim", Position: "9,10,11,12", MaxNodes: 50}
	code, first, fail := postSolve(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %+v", code, fail)
	}
	if !first.Partial || first.Verdict != "unknown" {
		t.Fatalf("budget-stopped solve: partial=%v verdict=%q", first.Partial, first.Verdict)
	}
	if got := s.SolveStats()["parked_solvers"]; got != 1 {
		t.Fatalf("parked_solvers = %d, want 1", got)
	}

	code, second, _ := postSolve(t, ts.URL, req)
	if code != http.StatusOK || !second.Resumed {
		t.Fatalf("repeat: status %d resumed=%v", code, second.Resumed)
	}
	if second.Expands <= first.Expands {
		t.Fatalf("resume did not continue: %d then %d expands", first.Expands, second.Expands)
	}

	// A real deadline expiry behaves the same: 200 + partial, not 504.
	code, dl, fail := postSolve(t, ts.URL,
		SolveRequest{Game: "nim", Position: "11,12,13,14", DeadlineMs: 30})
	if code != http.StatusOK {
		t.Fatalf("deadline solve: status %d (%+v), want 200 partial", code, fail)
	}
	if !dl.Partial {
		t.Fatalf("deadline solve finished?! %+v", dl)
	}
}

// TestSolveStream reads the newline-delimited streaming response: zero
// or more progress frames, then exactly one result frame with the right
// verdict.
func TestSolveStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	body, _ := json.Marshal(SolveRequest{
		Game: "nim", Position: "4,5,6", Stream: true, ProgressMs: 5,
	})
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type %q", ct)
	}
	var result *SolveResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var frame struct {
			Progress *SolveProgress `json:"progress"`
			Result   *SolveResponse `json:"result"`
			Error    string         `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if frame.Error != "" {
			t.Fatalf("stream error: %s", frame.Error)
		}
		if frame.Result != nil {
			if result != nil {
				t.Fatal("two result frames")
			}
			result = frame.Result
		} else if frame.Progress == nil {
			t.Fatalf("frame %q is neither progress nor result", sc.Text())
		} else if result != nil {
			t.Fatal("progress frame after the result frame")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if result == nil {
		t.Fatal("stream ended without a result frame")
	}
	if result.Verdict != "proven" { // 4^5^6 = 7 ≠ 0
		t.Fatalf("verdict %q, want proven", result.Verdict)
	}
}

// TestSolveStreamClientCancel drops the connection mid-solve and
// asserts the workers unwind promptly: the pool token must come back
// (a follow-up solve succeeds quickly) and the partial tree is parked.
func TestSolveStreamClientCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1, MaxDeadline: time.Minute})
	body, _ := json.Marshal(SolveRequest{
		Game: "nim", Position: "12,13,14,15", Stream: true,
		DeadlineMs: 60000, ProgressMs: 5,
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one progress frame so the solve is provably running, then
	// drop the connection.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first frame: %v", sc.Err())
	}
	resp.Body.Close()

	// Worker release: the single pool must serve a fresh solve soon.
	waitFor(t, "parked partial solver", func() bool {
		return s.SolveStats()["parked_solvers"] >= 1
	})
	code, ok, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "1,2,4"})
	if code != http.StatusOK || ok.Verdict != "proven" {
		t.Fatalf("post-cancel solve: status %d %+v %+v", code, ok, fail)
	}
}

// TestSolveCoalescing: concurrent identical unary solves share one
// leader.
func TestSolveCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	const n = 4
	type res struct {
		code int
		ok   SolveResponse
	}
	results := make(chan res, n)
	for i := 0; i < n; i++ {
		go func() {
			// A generous deadline: this tests coalescing, not the clock.
			code, ok, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: "6,7,8,9", DeadlineMs: 20000})
			results <- res{code, ok}
		}()
	}
	coalesced := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if r.ok.Verdict != "disproven" { // 6^7^8^9 = 0
			t.Fatalf("verdict %q", r.ok.Verdict)
		}
		if r.ok.Coalesced {
			coalesced++
		}
	}
	// Timing may let some requests arrive after completion (cache hits);
	// the stats must show every request answered and none failed.
	if s.Stats()["failed"] != 0 {
		t.Fatalf("failed searches: %+v", s.Stats())
	}
	_ = coalesced // any split between coalesced/cached/leader is legal
}

// TestSolveJoinerGetsPartial: a joiner coalesced onto a solve that runs
// out of its deadline gets the leader's 200 partial, never a 504 — even
// when the joiner's own deadline is the shorter one, since the leader's
// partial can land up to searchGrace after the leader's deadline.
func TestSolveJoinerGetsPartial(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Pools: 1})
	pos := "11,12,13,14" // far beyond a 300 ms solve
	leader := make(chan int, 1)
	go func() {
		code, ok, _ := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: pos, DeadlineMs: 300})
		if code == http.StatusOK && !ok.Partial {
			code = -1 // solved: the test position is too small
		}
		leader <- code
	}()
	waitFor(t, "leader admitted", func() bool { return s.Stats()["admitted"] == 1 })
	code, joined, fail := postSolve(t, ts.URL, SolveRequest{Game: "nim", Position: pos, DeadlineMs: 250})
	if code != http.StatusOK {
		t.Fatalf("joiner: status %d (%+v), want the 200 partial", code, fail)
	}
	if !joined.Coalesced || !joined.Partial || joined.Verdict != "unknown" {
		t.Fatalf("joiner: coalesced=%v partial=%v verdict=%q", joined.Coalesced, joined.Partial, joined.Verdict)
	}
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader: status %d, want the 200 partial", code)
	}
}

// TestSolvePanicNotParked: a solve stopped by a worker panic answers 500
// and is not parked — its tree still holds the panicked descent's
// virtual counts — so the repeat request starts fresh and solves. One
// worker: the panic leaves the root's expansion lock held.
func TestSolvePanicNotParked(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Pools: 1})
	panicNext.Store(true)
	req := SolveRequest{Game: "panic-once", Position: "1,2,4"}
	code, _, fail := postSolve(t, ts.URL, req)
	if code != http.StatusInternalServerError || !strings.Contains(fail.Error, "boom") {
		t.Fatalf("panicked solve: status %d %+v, want 500 with the panic", code, fail)
	}
	if got := s.SolveStats()["parked_solvers"]; got != 0 {
		t.Fatalf("parked_solvers = %d after a panic, want 0", got)
	}
	code, ok, fail := postSolve(t, ts.URL, req)
	if code != http.StatusOK || ok.Verdict != "proven" || ok.Resumed {
		t.Fatalf("repeat: status %d verdict=%q resumed=%v (%+v)", code, ok.Verdict, ok.Resumed, fail)
	}
}
