package serve

// POST /v1/solve: proof-number solving behind the same operational stack
// as /v1/search — drain gate, result cache, singleflight coalescing,
// bounded admission queue, pool tokens, request deadlines. Differences
// that matter:
//
//   - A solve answers a win/loss question; the response carries a
//     verdict plus the root proof/disproof numbers instead of a score.
//   - Long solves can stream: stream=true switches the response to
//     newline-delimited JSON progress frames (root pn/dn, node counts,
//     frontier depth) followed by one final result frame. Streaming
//     requests run attached to the client connection, so a client
//     disconnect cancels the solve and releases the pool workers
//     promptly (the solve-smoke CI job asserts exactly this via the
//     pns counters on /metrics).
//   - A deadline does not produce a 504: the solver's partial tree is
//     parked in a bounded store keyed by canonical position and the
//     response is a 200 with partial=true and the best-so-far numbers.
//     A later request for the same position checks the parked solver
//     out and resumes where it stopped.
//
// Solving requires the local pool substrate; a Backend (shard
// coordinator) deployment answers 501.

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"gametree/internal/engine"
	"gametree/internal/pns"
)

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	Game     string `json:"game"`     // any registered game; nim and kayles are the natural fits
	Position string `json:"position"` // game-specific encoding (see README)
	// DeadlineMs overrides the default per-request deadline, clamped to
	// the configured maximum. On expiry the response is a 200 partial,
	// not a 504 — see Partial below.
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// MaxNodes bounds the solve's expansions (0 = server cap; clamped to
	// it otherwise). A budget-stopped solve returns partial=true.
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// Stream switches the response to newline-delimited JSON: progress
	// frames every ProgressMs, then one result frame.
	Stream bool `json:"stream,omitempty"`
	// ProgressMs is the streaming frame interval (0 = 100ms).
	ProgressMs int `json:"progress_ms,omitempty"`
}

// SolveResponse is the result payload — the whole 200 body for unary
// requests, the final frame's "result" field for streaming ones.
type SolveResponse struct {
	Game     string `json:"game"`
	Position string `json:"position"` // canonical form
	// Verdict is "proven" (the side to move wins), "disproven" (loses),
	// or "unknown" (stopped on budget or deadline; see Partial).
	Verdict string `json:"verdict"`
	// PN and DN are the root proof/disproof numbers; 4294967295 stands
	// for infinity. A proven root has pn=0, a disproven one dn=0.
	PN            uint32  `json:"pn"`
	DN            uint32  `json:"dn"`
	Nodes         int64   `json:"nodes"`
	Expands       int64   `json:"expands"`
	FrontierDepth int64   `json:"frontier_depth"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	QueueMs       float64 `json:"queue_ms,omitempty"`
	Cached        bool    `json:"cached,omitempty"`
	Coalesced     bool    `json:"coalesced,omitempty"`
	// Partial marks a solve stopped before a verdict (deadline or node
	// budget). The partial tree is retained server-side: repeating the
	// request resumes it (Resumed on the follow-up response).
	Partial bool `json:"partial,omitempty"`
	// Resumed marks a solve that continued a previously parked partial
	// tree rather than starting fresh.
	Resumed bool `json:"resumed,omitempty"`
}

// SolveProgress is one streaming progress frame (wrapped as
// {"progress": {...}} on the wire; the final frame is {"result": {...}}).
type SolveProgress struct {
	PN            uint32  `json:"pn"`
	DN            uint32  `json:"dn"`
	Nodes         int64   `json:"nodes"`
	Expands       int64   `json:"expands"`
	FrontierDepth int64   `json:"frontier_depth"`
	ElapsedMs     float64 `json:"elapsed_ms"`
}

// solveOutcome is the settled state of one solve flight.
type solveOutcome struct {
	verdict  pns.Verdict
	progress pns.Progress
	partial  bool
	resumed  bool
}

// solveCall is one in-flight solve; the solve mirror of flightCall.
type solveCall struct {
	done chan struct{}
	out  solveOutcome
	err  error
}

// solveFlights indexes in-flight solves by canonical position key.
type solveFlights struct {
	mu    sync.Mutex
	calls map[string]*solveCall
}

func (g *solveFlights) join(key string) (c *solveCall, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*solveCall)
	}
	if c := g.calls[key]; c != nil {
		return c, false
	}
	c = &solveCall{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

func (g *solveFlights) finish(key string, c *solveCall, out solveOutcome, err error) {
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	c.out, c.err = out, err
	close(c.done)
}

// solverStore parks partially-solved trees between requests, bounded LRU
// with checkout semantics: take removes the solver, so two concurrent
// requests can never run one solver at once (the loser starts fresh and
// leans on the shared transposition table instead).
type solverStore struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type solverEntry struct {
	key string
	s   *pns.Solver
}

func newSolverStore(capacity int) *solverStore {
	if capacity <= 0 {
		return &solverStore{}
	}
	return &solverStore{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (st *solverStore) take(key string) (*pns.Solver, bool) {
	if st.cap == 0 {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.items[key]
	if !ok {
		return nil, false
	}
	st.ll.Remove(el)
	delete(st.items, key)
	return el.Value.(*solverEntry).s, true
}

func (st *solverStore) put(key string, s *pns.Solver) {
	if st.cap == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if el, ok := st.items[key]; ok {
		el.Value.(*solverEntry).s = s
		st.ll.MoveToFront(el)
		return
	}
	st.items[key] = st.ll.PushFront(&solverEntry{key: key, s: s})
	if st.ll.Len() > st.cap {
		oldest := st.ll.Back()
		st.ll.Remove(oldest)
		delete(st.items, oldest.Value.(*solverEntry).key)
	}
}

func (st *solverStore) len() int {
	if st.cap == 0 {
		return 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ll.Len()
}

// solveProgressInterval is the default streaming frame cadence.
const solveProgressInterval = 100 * time.Millisecond

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.stats.solveRequests.Add(1)
	start := time.Now()
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return
	}
	if s.cfg.Backend != nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{"solve requires local pools (shard backend configured)"})
		return
	}
	var req SolveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return
	}
	pos, posKey, err := ParsePosition(req.Game, req.Position)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}

	// Admission gate: identical to /v1/search (see handleSearch).
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	defer s.inflight.Done()
	s.stats.inflight.Add(1)
	defer s.stats.inflight.Add(-1)
	defer func() { s.stats.latencyNs.Observe(time.Since(start).Nanoseconds()) }()

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	maxNodes := req.MaxNodes
	if maxNodes <= 0 || maxNodes > s.cfg.SolveMaxNodes {
		maxNodes = s.cfg.SolveMaxNodes
	}

	key := "solve!" + posKey
	resp := SolveResponse{Game: req.Game, Position: keyPosition(posKey)}

	if out, ok := s.solveCache.get(key); ok {
		s.stats.cacheHits.Add(1)
		s.stats.completed.Add(1)
		resp.fill(out, start, 0)
		resp.Cached = true
		if req.Stream {
			writeSolveStream(w, resp, nil)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.stats.cacheMisses.Add(1)

	if req.Stream {
		s.streamSolve(w, r, pos, posKey, key, resp, deadline, maxNodes, req.ProgressMs, start)
		return
	}

	call, leader := s.solves.join(key)
	if !leader {
		s.stats.coalesced.Add(1)
		// A deadline-stopped leader settles with a 200 partial up to
		// searchGrace after its own deadline; the joiner waits the same
		// slack, so it gets that partial rather than a 504.
		select {
		case <-call.done:
		case <-time.After(deadline + searchGrace):
			s.stats.deadlineExceeded.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errorResponse{"deadline exceeded waiting for coalesced solve"})
			return
		case <-s.baseCtx.Done():
			s.stats.rejectedDraining.Add(1)
			s.shed(w, http.StatusServiceUnavailable, "cancelled by shutdown")
			return
		case <-r.Context().Done():
			return
		}
		s.respondSolve(w, resp, call, start, 0, true)
		return
	}

	// Leader path: bounded admission queue, then a resident pool.
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.solves.finish(key, call, solveOutcome{}, errOverloaded)
		s.stats.rejectedQueue.Add(1)
		s.shed(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	waitStart := time.Now()
	var pool *engine.Pool
	select {
	case pool = <-s.free:
	case <-time.After(deadline):
		s.queued.Add(-1)
		s.solves.finish(key, call, solveOutcome{}, errOverloaded)
		s.stats.deadlineExceeded.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "deadline exceeded waiting for a pool")
		return
	case <-s.baseCtx.Done():
		s.queued.Add(-1)
		s.solves.finish(key, call, solveOutcome{}, errOverloaded)
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	s.queued.Add(-1)
	queueWait := time.Since(waitStart)
	s.stats.queueWaitNs.Observe(queueWait.Nanoseconds())
	s.stats.admitted.Add(1)

	// Detached like a search leader: the solve survives a leader
	// disconnect for the sake of coalesced joiners, and the pool token is
	// returned by this goroutine no matter how the response went.
	budget := deadline - queueWait
	sctx, cancel := context.WithTimeout(s.baseCtx, budget)
	go func() {
		defer cancel()
		out, err := s.runSolve(sctx, pool, posKey, pos, maxNodes)
		s.free <- pool
		if err == nil && !out.partial {
			s.solveCache.put(key, out)
		}
		s.solves.finish(key, call, out, err)
	}()
	select {
	case <-call.done:
		s.respondSolve(w, resp, call, start, queueWait, false)
	case <-time.After(budget + searchGrace):
		// Solver loops poll their stop predicate every descent, so this
		// fires only if Position code wedged without returning.
		s.stats.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{"solve deadline exceeded"})
	case <-s.baseCtx.Done():
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "cancelled by shutdown")
	}
}

// runSolve checks out (or creates) the solver for posKey, runs it on
// pool, and re-parks it when it stops without a verdict. A deadline
// expiry is not an error here: the caller answers 200 with the partial
// state — that is the /v1/solve contract. Other cancellations (drain,
// pool close, panic) surface as errors.
func (s *Server) runSolve(ctx context.Context, pool *engine.Pool, posKey string, pos engine.Position, maxNodes int64) (solveOutcome, error) {
	solver, resumed := s.partials.take(posKey)
	if resumed {
		s.stats.solveResumed.Add(1)
		// The request budget is incremental on resume: the parked tree
		// already spent its previous budget.
		solver.SetMaxNodes(solver.Progress().Expands + maxNodes)
	} else {
		solver = pns.New(pos, pns.Options{Table: s.table, MaxNodes: maxNodes})
	}
	res, err := solver.SolveParallel(ctx, pool)
	out := solveOutcome{
		verdict:  res.Verdict,
		progress: solver.Progress(),
		resumed:  resumed,
	}
	if res.Verdict == pns.Unknown {
		out.partial = true
		s.partials.put(posKey, solver)
		s.stats.solvePartial.Add(1)
	}
	if err != nil && errors.Is(err, context.DeadlineExceeded) {
		err = nil // deadline → 200 with partial state, never 504
	}
	return out, err
}

// respondSolve renders a settled solve flight for one waiter.
func (s *Server) respondSolve(w http.ResponseWriter, resp SolveResponse, call *solveCall, start time.Time, queueWait time.Duration, coalesced bool) {
	if err := call.err; err != nil {
		switch {
		case errors.Is(err, errOverloaded):
			s.stats.rejectedQueue.Add(1)
			s.shed(w, http.StatusTooManyRequests, "coalesced leader was shed")
		case errors.Is(err, engine.ErrCancelled), errors.Is(err, engine.ErrPoolClosed):
			s.stats.rejectedDraining.Add(1)
			s.shed(w, http.StatusServiceUnavailable, "solve cancelled by shutdown")
		default:
			s.stats.failed.Add(1)
			writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		}
		return
	}
	s.stats.completed.Add(1)
	resp.fill(call.out, start, queueWait)
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

func (r *SolveResponse) fill(out solveOutcome, start time.Time, queueWait time.Duration) {
	r.Verdict = out.verdict.String()
	r.PN = out.progress.PN
	r.DN = out.progress.DN
	r.Nodes = out.progress.Nodes
	r.Expands = out.progress.Expands
	r.FrontierDepth = out.progress.FrontierDepth
	r.Partial = out.partial
	r.Resumed = out.resumed
	r.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6
	r.QueueMs = float64(queueWait.Nanoseconds()) / 1e6
}

// streamSolve runs the solve attached to the client connection and
// streams progress frames. Streaming requests skip coalescing — each
// client gets its own frame cadence — but still pay the admission queue
// and a pool token, and still park partial trees for resume.
func (s *Server) streamSolve(w http.ResponseWriter, r *http.Request, pos engine.Position, posKey, cacheKey string, resp SolveResponse, deadline time.Duration, maxNodes int64, progressMs int, start time.Time) {
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.stats.rejectedQueue.Add(1)
		s.shed(w, http.StatusTooManyRequests, "admission queue full")
		return
	}
	waitStart := time.Now()
	var pool *engine.Pool
	select {
	case pool = <-s.free:
	case <-time.After(deadline):
		s.queued.Add(-1)
		s.stats.deadlineExceeded.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "deadline exceeded waiting for a pool")
		return
	case <-s.baseCtx.Done():
		s.queued.Add(-1)
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, "shutting down")
		return
	case <-r.Context().Done():
		s.queued.Add(-1)
		return
	}
	s.queued.Add(-1)
	queueWait := time.Since(waitStart)
	s.stats.queueWaitNs.Observe(queueWait.Nanoseconds())
	s.stats.admitted.Add(1)

	// Attached context: client disconnect cancels the solve, which is
	// what releases the pool workers promptly mid-stream. Server
	// shutdown (baseCtx) must cut in too.
	budget := deadline - queueWait
	sctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	stopWatch := context.AfterFunc(s.baseCtx, cancel)
	defer stopWatch()

	solver, resumed := s.partials.take(posKey)
	if resumed {
		s.stats.solveResumed.Add(1)
		// The request budget is incremental on resume: the parked tree
		// already spent its previous budget.
		solver.SetMaxNodes(solver.Progress().Expands + maxNodes)
	} else {
		solver = pns.New(pos, pns.Options{Table: s.table, MaxNodes: maxNodes})
	}

	type solveDone struct {
		res pns.Result
		err error
	}
	doneCh := make(chan solveDone, 1)
	go func() {
		res, err := solver.SolveParallel(sctx, pool)
		s.free <- pool
		doneCh <- solveDone{res, err}
	}()

	interval := solveProgressInterval
	if progressMs > 0 {
		interval = time.Duration(progressMs) * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case <-ticker.C:
			p := solver.Progress()
			frame := SolveProgress{
				PN: p.PN, DN: p.DN, Nodes: p.Nodes, Expands: p.Expands,
				FrontierDepth: p.FrontierDepth,
				ElapsedMs:     float64(time.Since(start).Nanoseconds()) / 1e6,
			}
			if err := enc.Encode(map[string]SolveProgress{"progress": frame}); err != nil {
				// Client gone: cancel and wait for the workers to unwind
				// so the pool token is back before we return.
				cancel()
				<-doneCh
				s.parkPartial(posKey, solver)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case d := <-doneCh:
			out := solveOutcome{verdict: d.res.Verdict, progress: solver.Progress(), resumed: resumed}
			if d.res.Verdict == pns.Unknown {
				out.partial = true
				s.parkPartial(posKey, solver)
			} else if d.err == nil {
				s.solveCache.put(cacheKey, out)
			}
			if d.err != nil && !errors.Is(d.err, context.DeadlineExceeded) && !errors.Is(d.err, context.Canceled) {
				s.stats.failed.Add(1)
				writeSolveStream(w, resp, fmt.Errorf("solve failed: %w", d.err))
				return
			}
			s.stats.completed.Add(1)
			resp.fill(out, start, queueWait)
			writeSolveStream(w, resp, nil)
			return
		}
	}
}

// parkPartial stores a stopped solver for resume and bumps the counter.
func (s *Server) parkPartial(posKey string, solver *pns.Solver) {
	s.partials.put(posKey, solver)
	s.stats.solvePartial.Add(1)
}

// writeSolveStream emits the final frame of a streaming response (the
// status line is already written, so errors ride inside the stream).
func writeSolveStream(w http.ResponseWriter, resp SolveResponse, err error) {
	enc := json.NewEncoder(w)
	if err != nil {
		_ = enc.Encode(map[string]string{"error": err.Error()})
	} else {
		_ = enc.Encode(map[string]SolveResponse{"result": resp})
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// SolveStats reports the solve-path counters (tests, shutdown report).
func (s *Server) SolveStats() map[string]int64 {
	return map[string]int64{
		"solve_requests": s.stats.solveRequests.Load(),
		"solve_partial":  s.stats.solvePartial.Load(),
		"solve_resumed":  s.stats.solveResumed.Load(),
		"parked_solvers": int64(s.partials.len()),
	}
}

// solveCache is a bounded LRU of completed (non-partial) solve
// outcomes — the solve twin of resultCache.
type solveCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type solveCacheEntry struct {
	key string
	out solveOutcome
}

func newSolveCache(capacity int) *solveCache {
	if capacity <= 0 {
		return &solveCache{}
	}
	return &solveCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *solveCache) get(key string) (solveOutcome, bool) {
	if c.cap == 0 {
		return solveOutcome{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return solveOutcome{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*solveCacheEntry).out, true
}

func (c *solveCache) put(key string, out solveOutcome) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*solveCacheEntry).out = out
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&solveCacheEntry{key: key, out: out})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*solveCacheEntry).key)
	}
}
