package serve

// POST /v1/solve: proof-number solving on the request path /v1/search
// takes (see the package comment) — the same prologue, cache and
// flight-group types, admission queue, pool tokens and error mapping,
// with the solver as the work function. What is the solve endpoint's
// own:
//
//   - A solve answers a win/loss question; the response carries a
//     verdict plus the root proof/disproof numbers instead of a score.
//   - The settle rule (settleSolve): a deadline does not produce a 504.
//     A solver stopped without a verdict on its deadline, its node
//     budget or its client's disconnect is parked in a bounded store
//     keyed by canonical position, and the response is a 200 with
//     partial=true and the best-so-far numbers. A later request for the
//     same position checks the parked solver out and resumes where it
//     stopped. A solver stopped by a panic, a closed pool or a drain is
//     dropped, never parked. Only verdicts are cached.
//   - Coalesced joiners wait searchGrace past their deadline, so the
//     leader's partial reaches them instead of a 504.
//   - Long solves can stream: stream=true switches the response to
//     newline-delimited JSON progress frames (root pn/dn, node counts,
//     frontier depth) followed by one final result frame. Streaming
//     requests skip coalescing and run attached to the client
//     connection, so a client disconnect cancels the solve and releases
//     the pool workers promptly (the solve-smoke CI job asserts exactly
//     this via the pns counters on /metrics).
//
// Solving requires the local pool substrate; a Backend (shard
// coordinator) deployment answers 501.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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

// solveProgressInterval is the default streaming frame cadence.
const solveProgressInterval = 100 * time.Millisecond

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.stats.solveRequests.Add(1)
	var req SolveRequest
	x := s.open(w, r, &req)
	defer s.close(&x)
	if !x.admitted {
		return
	}
	if s.cfg.Backend != nil {
		writeJSON(x.w, http.StatusNotImplemented, errorResponse{"solve requires local pools (shard backend configured)"})
		return
	}
	maxNodes := req.MaxNodes
	if maxNodes <= 0 || maxNodes > s.cfg.SolveMaxNodes {
		maxNodes = s.cfg.SolveMaxNodes
	}

	key := x.posKey
	resp := SolveResponse{Game: req.Game, Position: keyPosition(key)}
	if out, ok := s.solveCache.get(key); ok {
		s.stats.cacheHits.Add(1)
		s.stats.completed.Add(1)
		x.note("cache-hit")
		resp.fill(out, x.start, 0)
		resp.Cached = true
		if req.Stream {
			writeSolveStream(x.w, resp, nil)
			return
		}
		writeJSON(x.w, http.StatusOK, resp)
		return
	}
	s.stats.cacheMisses.Add(1)

	if req.Stream {
		s.streamSolve(&x, r, resp, maxNodes, req.ProgressMs)
		return
	}

	call, leader := s.solves.join(key)
	if !leader {
		// A deadline-stopped leader settles with a 200 partial up to
		// searchGrace after its own deadline; the joiner waits the same
		// slack, so it gets that partial rather than a 504.
		s.stats.coalesced.Add(1)
		x.note("coalesced")
		if s.await(&x, call.done, r.Context().Done(), x.deadline+searchGrace, "deadline exceeded waiting for coalesced solve") {
			s.respondSolve(&x, resp, call, 0, true)
		}
		return
	}
	pos := x.pos
	queueWait, settled := lead(s, &x, &s.solves, key, call, "solve",
		func(ctx context.Context, pool *engine.Pool) (solveOutcome, error) {
			solver, resumed := s.checkoutSolver(key, pos, maxNodes)
			res, err := solver.SolveParallel(ctx, pool)
			return s.settleSolve(key, solver, res, err, resumed, false)
		})
	if settled {
		s.respondSolve(&x, resp, call, queueWait, false)
	}
}

// checkoutSolver takes the parked solver for posKey or builds a fresh
// one. The request budget is incremental on resume: the parked tree
// already spent its previous budget.
func (s *Server) checkoutSolver(posKey string, pos engine.Position, maxNodes int64) (solver *pns.Solver, resumed bool) {
	if parked, ok := s.partials.take(posKey); ok {
		s.stats.solveResumed.Add(1)
		parked.SetMaxNodes(parked.Progress().Expands + maxNodes)
		return parked, true
	}
	return pns.New(pos, pns.Options{Table: s.table, MaxNodes: maxNodes}), false
}

// settleSolve is the solve settle rule. A solver that stopped without a
// verdict on its node budget (err nil), its deadline or its client going
// away (disconnected) is parked for resume; one stopped by a panic, a
// closed pool or a drain is dropped — a panicked descent leaves virtual
// counts that no update ever unwinds. A deadline is not an error here:
// the caller answers 200 with the partial state, never 504. A verdict
// reached without error is cached.
func (s *Server) settleSolve(posKey string, solver *pns.Solver, res pns.Result, err error, resumed, disconnected bool) (solveOutcome, error) {
	out := solveOutcome{verdict: res.Verdict, progress: solver.Progress(), resumed: resumed}
	deadline := errors.Is(err, context.DeadlineExceeded)
	if res.Verdict == pns.Unknown {
		out.partial = true
		if err == nil || deadline || disconnected && errors.Is(err, engine.ErrCancelled) {
			s.partials.put(posKey, solver)
			s.stats.solvePartial.Add(1)
		}
	}
	if deadline {
		err = nil
	}
	if err == nil && !out.partial {
		s.solveCache.put(posKey, out)
	}
	return out, err
}

// respondSolve renders a settled solve flight for one waiter.
func (s *Server) respondSolve(x *exchange, resp SolveResponse, call *flight[solveOutcome], queueWait time.Duration, coalesced bool) {
	if call.err != nil {
		s.fail(x.w, call.err, "solve")
		return
	}
	s.stats.completed.Add(1)
	resp.fill(call.val, x.start, queueWait)
	resp.Coalesced = coalesced
	writeJSON(x.w, http.StatusOK, resp)
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
func (s *Server) streamSolve(x *exchange, r *http.Request, resp SolveResponse, maxNodes int64, progressMs int) {
	pool, queueWait, ok := s.acquire(x, r.Context().Done())
	if !ok {
		return
	}

	// Attached context: client disconnect cancels the solve, which is
	// what releases the pool workers promptly mid-stream. Server
	// shutdown (baseCtx) must cut in too.
	sctx, cancel := context.WithTimeout(r.Context(), x.deadline-queueWait)
	defer cancel()
	stopWatch := context.AfterFunc(s.baseCtx, cancel)
	defer stopWatch()

	solver, resumed := s.checkoutSolver(x.posKey, x.pos, maxNodes)
	type solveDone struct {
		res pns.Result
		err error
	}
	doneCh := make(chan solveDone, 1)
	trace := x.trace
	go func() {
		start := time.Now()
		res, err := solver.SolveParallel(sctx, pool)
		s.recordWork(trace, start, err)
		s.free <- pool
		doneCh <- solveDone{res, err}
	}()

	interval := solveProgressInterval
	if progressMs > 0 {
		interval = time.Duration(progressMs) * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	w := x.w
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
				ElapsedMs:     float64(time.Since(x.start).Nanoseconds()) / 1e6,
			}
			if err := enc.Encode(map[string]SolveProgress{"progress": frame}); err != nil {
				// Client gone: cancel and wait for the workers to unwind
				// so the pool token is back before we return.
				cancel()
				d := <-doneCh
				_, _ = s.settleSolve(x.posKey, solver, d.res, d.err, resumed, true)
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		case d := <-doneCh:
			out, err := s.settleSolve(x.posKey, solver, d.res, d.err, resumed, r.Context().Err() != nil)
			if err != nil {
				s.stats.failed.Add(1)
				writeSolveStream(w, resp, fmt.Errorf("solve failed: %w", err))
				return
			}
			s.stats.completed.Add(1)
			resp.fill(out, x.start, queueWait)
			writeSolveStream(w, resp, nil)
			return
		}
	}
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
