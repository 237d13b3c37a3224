// Package serve is the resident search service behind cmd/gtserve: an
// HTTP JSON layer that holds a set of resident engine pools over one
// shared transposition table and multiplexes concurrent requests onto
// them. Two endpoints front the repo's two parallel evaluators: POST
// /v1/search runs the pooled alpha-beta search, POST /v1/solve the
// proof-number solver.
//
// Both endpoints take one request path:
//
//	open (trace, access record, POST, bounded decode, parse, drain
//	gate: 503 while draining, deadline clamp) → result cache →
//	singleflight join (duplicates of an in-flight request wait for the
//	leader) → acquire (bounded admission queue: 429 + Retry-After when
//	full; then a pool token under the deadline) → work on the pool,
//	detached from the leader's connection → settle the flight → respond
//	→ close (latency, request span, access-log line)
//
// Each endpoint supplies only its work function and its settle rule,
// and keeps these differences as its own code: a search deadline is a
// 504 while a solve deadline is a 200 partial (its tree parked for
// resume); a search joiner waits its own deadline, a solve joiner
// searchGrace longer so the leader's partial reaches it; a search is
// cached when it succeeds, a solve only when it reached a verdict;
// streamed solves skip coalescing and run attached to the client; and a
// Backend deployment answers 501 on /v1/solve.
//
// The pools are built once at New and reused for every request — the
// whole point of the engine's resident-pool refactor: a request costs a
// park/wake cycle on warm workers instead of worker construction, deque
// allocation and goroutine spawns. The shared Table means every request
// searches under the accumulated move-ordering knowledge of all previous
// ones.
//
// Overload semantics: concurrency is bounded by the pool count, queueing
// by QueueDepth *leaders* (coalesced duplicates never hold queue slots).
// Beyond that the server sheds immediately with 429 and a Retry-After
// hint rather than queue without bound; during drain it sheds with 503.
// Every admitted request gets a response — drain waits for in-flight
// requests (cancelling their work only if the drain grace expires,
// which still produces 5xx responses, never dropped connections).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/engine"
	"gametree/internal/pns"
	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// Config parameterizes a Server. Zero values select the defaults noted
// on each field.
type Config struct {
	// Workers per engine pool (0 = GOMAXPROCS).
	Workers int
	// Pools is the number of resident pools — the maximum number of
	// concurrently running searches (0 = 2).
	Pools int
	// QueueDepth bounds how many leader requests may wait for a pool
	// before new ones are shed with 429 (0 = 64; negative = no queue).
	QueueDepth int
	// TableEntries sizes the shared transposition table (0 = 1<<20).
	TableEntries int
	// CacheEntries bounds the LRU result cache (0 = 4096; negative
	// disables caching).
	CacheEntries int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (0 = 2s). MaxDeadline clamps request deadlines (0 = 30s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MaxDepth clamps the request depth (0 = 16).
	MaxDepth int
	// SolveMaxNodes caps (and defaults) the expansion budget of one
	// /v1/solve request (0 = 1<<21). Budget-stopped solves return a
	// resumable partial response.
	SolveMaxNodes int64
	// SolveStoreEntries bounds the store of parked partial solvers
	// awaiting resume (0 = 32; negative disables parking).
	SolveStoreEntries int
	// RetryAfter is the hint attached to 429/503 responses (0 = 1s).
	RetryAfter time.Duration
	// Telemetry receives the engine counters of all pools (on disjoint
	// shard ranges) and the serve counter section for /metrics. Nil
	// creates a private recorder so /metrics always works.
	Telemetry *telemetry.Recorder
	// Backend, when non-nil, replaces the resident local pools with an
	// external search executor — the shard coordinator, in the
	// distributed deployment. The request path is unchanged (admission,
	// cache, coalescing, queue, deadline), with Pools bounding the
	// number of concurrently running backend searches; no local table or
	// pools are built.
	Backend Backend
	// Tracer records request-scoped spans for sampled requests (its
	// sample rate decides which headerless requests are traced; an
	// inbound X-GT-Trace header is always honoured) and backs the
	// /debug/gttrace endpoint. Optional (nil = tracing off).
	Tracer *reqtrace.Tracer
	// AccessLog, when non-nil, receives one JSON line per request:
	// trace ID, game, depth, outcome, queue-wait ns, total ns, status.
	// Writes are serialized by the server.
	AccessLog io.Writer
}

// Backend runs one search to completion and returns the exact result.
// Implementations must honour ctx cancellation. The shard tier's
// Coordinator satisfies this interface; nil selects the built-in local
// pool set.
type Backend interface {
	Search(ctx context.Context, game, position string, depth int) (engine.Result, error)
}

func (c *Config) applyDefaults() {
	if c.Pools == 0 {
		c.Pools = 2
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.TableEntries == 0 {
		c.TableEntries = 1 << 20
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 16
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.SolveMaxNodes == 0 {
		c.SolveMaxNodes = 1 << 21
	}
	if c.SolveStoreEntries == 0 {
		c.SolveStoreEntries = 32
	}
	if c.SolveStoreEntries < 0 {
		c.SolveStoreEntries = 0
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRecorder()
	}
}

// SearchRequest is the POST /v1/search body.
type SearchRequest struct {
	Game     string `json:"game"`     // ttt | connect4 | random
	Position string `json:"position"` // game-specific encoding (see README)
	Depth    int    `json:"depth"`
	// DeadlineMs overrides the server's default per-request deadline,
	// clamped to the configured maximum.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// SearchResponse is the 200 body. Nodes is the node count of the search
// that produced the value — a cached or coalesced response reports the
// producing search's count, not zero.
type SearchResponse struct {
	Game      string  `json:"game"`
	Position  string  `json:"position"` // canonical form
	Depth     int     `json:"depth"`
	Value     int32   `json:"value"`
	Best      int     `json:"best"`
	Nodes     int64   `json:"nodes"`
	ElapsedMs float64 `json:"elapsed_ms"`
	QueueMs   float64 `json:"queue_ms,omitempty"`
	Cached    bool    `json:"cached,omitempty"`
	Coalesced bool    `json:"coalesced,omitempty"`
	// Degraded marks an answer produced without the full healthy path —
	// the shard backend computed it locally because the worker ring was
	// empty. The value is still exact.
	Degraded bool `json:"degraded,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// errOverloaded settles a flight whose leader was shed before searching;
// joiners translate it back to 429.
var errOverloaded = errors.New("serve: overloaded")

// Server is the resident search service. Construct with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	cfg   Config
	table *engine.Table
	free  chan *engine.Pool // resident pools not currently searching

	queued atomic.Int64 // leaders waiting for a pool
	stats  serveStats

	// One cache and one flight group per endpoint, keyed by canonical
	// position (plus depth for searches).
	cache      *lru[engine.Result]
	searches   flights[engine.Result]
	solveCache *lru[solveOutcome]
	solves     flights[solveOutcome]
	partials   *lru[*pns.Solver] // parked partial solvers awaiting resume (checked out with take)

	drainMu  sync.RWMutex // guards draining vs inflight.Add
	draining bool
	inflight sync.WaitGroup

	accessMu sync.Mutex // serializes cfg.AccessLog writes

	baseCtx    context.Context // parent of every search ctx; cancelled on hard stop
	baseCancel context.CancelFunc

	mux   *http.ServeMux
	start time.Time
}

// New builds the server and its resident pools. The pools share one
// transposition table and disjoint telemetry shard ranges of
// cfg.Telemetry.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{cfg: cfg, start: time.Now()}
	s.cache = newLRU[engine.Result](cfg.CacheEntries)
	s.solveCache = newLRU[solveOutcome](cfg.CacheEntries)
	s.partials = newLRU[*pns.Solver](cfg.SolveStoreEntries)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.free = make(chan *engine.Pool, cfg.Pools)
	if cfg.Backend != nil {
		// Remote backend: the free channel carries nil tokens that bound
		// concurrent backend searches exactly as pools bound local ones.
		for i := 0; i < cfg.Pools; i++ {
			s.free <- nil
		}
	} else {
		s.table = engine.NewTable(cfg.TableEntries)
		for i := 0; i < cfg.Pools; i++ {
			s.free <- engine.NewPool(cfg.Workers, s.table, cfg.Telemetry)
		}
	}
	cfg.Telemetry.AddPromSection(s.stats.writeProm)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", telemetry.PromHandler(cfg.Telemetry))
	// Nil-safe: with tracing off the endpoint serves an empty dump, so
	// gtobs can always scrape every ring process.
	s.mux.Handle("/debug/gttrace", reqtrace.Handler(cfg.Tracer))
	return s
}

// Handler returns the HTTP handler tree (POST /v1/search, GET /healthz,
// GET /metrics).
func (s *Server) Handler() http.Handler { return s.mux }

// Table exposes the shared transposition table (for load harnesses that
// want the serve configuration without HTTP).
func (s *Server) Table() *engine.Table { return s.table }

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	var req SearchRequest
	x := s.open(w, r, &req)
	defer s.close(&x)
	if !x.admitted {
		return
	}

	key := x.posKey + "/d" + strconv.Itoa(req.Depth)
	resp := SearchResponse{Game: req.Game, Position: keyPosition(x.posKey), Depth: req.Depth}
	if res, ok := s.cache.get(key); ok {
		s.stats.cacheHits.Add(1)
		s.stats.completed.Add(1)
		x.note("cache-hit")
		resp.fill(res, x.start, 0)
		resp.Cached = true
		writeJSON(x.w, http.StatusOK, resp)
		return
	}
	s.stats.cacheMisses.Add(1)

	call, leader := s.searches.join(key)
	if !leader {
		// Coalesce: wait for the leader's search under this request's own
		// deadline. The search itself keeps running on the leader's ctx —
		// one slow joiner times out alone, it does not cancel the others.
		s.stats.coalesced.Add(1)
		x.note("coalesced")
		if s.await(&x, call.done, r.Context().Done(), x.deadline, "deadline exceeded waiting for coalesced search") {
			s.respondSearch(&x, resp, call, 0, true)
		}
		return
	}
	pos := x.pos
	queueWait, settled := lead(s, &x, &s.searches, key, call, "search",
		func(ctx context.Context, pool *engine.Pool) (engine.Result, error) {
			// The degraded flag lets the backend mark an exact-but-degraded
			// answer (coordinator-local compute on an empty worker ring); it
			// is copied onto the flight before it settles so joiners see it.
			ctx, degraded := WithDegraded(ctx)
			var res engine.Result
			var err error
			if pool != nil {
				res, err = pool.Search(ctx, pos, req.Depth)
			} else {
				res, err = s.cfg.Backend.Search(ctx, req.Game, req.Position, req.Depth)
			}
			if err == nil {
				s.cache.put(key, res)
			}
			call.degraded = degraded.Get()
			return res, err
		})
	if !settled {
		return
	}
	if call.degraded {
		x.note("degraded")
	}
	s.respondSearch(&x, resp, call, queueWait, false)
}

// respondSearch renders a settled search flight for one waiter (leader
// or joiner).
func (s *Server) respondSearch(x *exchange, resp SearchResponse, call *flight[engine.Result], queueWait time.Duration, coalesced bool) {
	if call.err != nil {
		s.fail(x.w, call.err, "search")
		return
	}
	s.stats.completed.Add(1)
	resp.fill(call.val, x.start, queueWait)
	resp.Coalesced = coalesced
	if call.degraded {
		resp.Degraded = true
		s.stats.degraded.Add(1)
	}
	writeJSON(x.w, http.StatusOK, resp)
}

func (r *SearchResponse) fill(res engine.Result, start time.Time, queueWait time.Duration) {
	r.Value = res.Value
	r.Best = res.Best
	r.Nodes = res.Nodes
	r.ElapsedMs = float64(time.Since(start).Nanoseconds()) / 1e6
	r.QueueMs = float64(queueWait.Nanoseconds()) / 1e6
}

// exchange is one request's pass through the pipeline: what the
// prologue decoded and decided, and what the epilogue reports.
type exchange struct {
	w        http.ResponseWriter // the status-capturing wrapper when rec != nil
	start    time.Time
	trace    string        // "" = unsampled
	rec      *accessRecord // nil unless traced or access-logged
	pos      engine.Position
	posKey   string
	deadline time.Duration
	admitted bool // passed the drain gate; the epilogue owes the inflight accounting
}

// wireRequest is a decoded request body as the prologue reads it.
type wireRequest interface {
	target() (game, position string, depth, deadlineMs int)
}

func (q *SearchRequest) target() (string, string, int, int) {
	return q.Game, q.Position, q.Depth, q.DeadlineMs
}

// A solve has no depth; 0 passes the prologue's depth bound.
func (q *SolveRequest) target() (string, string, int, int) {
	return q.Game, q.Position, 0, q.DeadlineMs
}

// open is the prologue both endpoints share: trace selection and the
// access record, the POST check, the bounded decode into req, the
// position parse and depth bound, the drain gate and the deadline clamp.
// When a step fails it answers the request itself and returns with
// admitted false. The caller defers s.close on the result either way.
func (s *Server) open(w http.ResponseWriter, r *http.Request, req wireRequest) exchange {
	x := exchange{w: w, start: time.Now()}

	// Trace selection: an inbound X-GT-Trace header is always honoured,
	// otherwise the tracer's sampler picks 1-in-N. trace == "" means the
	// request is unsampled and every recording site no-ops on it — the
	// unsampled path allocates nothing (no wrapper, no context node)
	// unless the access log needs the status anyway.
	x.trace = r.Header.Get("X-GT-Trace")
	if x.trace == "" && s.cfg.Tracer.SampleNext() {
		x.trace = reqtrace.MintID()
	}
	if x.trace != "" || s.cfg.AccessLog != nil {
		sw := &statusWriter{ResponseWriter: w}
		x.w = sw
		x.rec = &accessRecord{sw: sw, trace: x.trace}
		if x.trace != "" {
			w.Header().Set("X-GT-Trace", x.trace)
		}
	}

	if r.Method != http.MethodPost {
		writeJSON(x.w, http.StatusMethodNotAllowed, errorResponse{"POST required"})
		return x
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(req); err != nil {
		writeJSON(x.w, http.StatusBadRequest, errorResponse{"bad request body: " + err.Error()})
		return x
	}
	game, position, depth, deadlineMs := req.target()
	pos, posKey, err := ParsePosition(game, position)
	if err != nil {
		writeJSON(x.w, http.StatusBadRequest, errorResponse{err.Error()})
		return x
	}
	if depth < 0 || depth > s.cfg.MaxDepth {
		writeJSON(x.w, http.StatusBadRequest,
			errorResponse{fmt.Sprintf("depth %d out of range [0, %d]", depth, s.cfg.MaxDepth)})
		return x
	}
	if x.rec != nil {
		x.rec.game, x.rec.pos, x.rec.depth = game, keyPosition(posKey), depth
	}

	// Admission gate: no new work once draining. The RLock pairs with
	// Drain's Lock so a request either sees draining (shed here) or has
	// joined the inflight group before Drain starts waiting — never the
	// gap in between, which would let Drain return with this request
	// unanswered.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.stats.rejectedDraining.Add(1)
		s.shed(x.w, http.StatusServiceUnavailable, "draining")
		return x
	}
	s.inflight.Add(1)
	s.drainMu.RUnlock()
	s.stats.inflight.Add(1)
	x.admitted = true

	x.pos, x.posKey = pos, posKey
	x.deadline = s.cfg.DefaultDeadline
	if deadlineMs > 0 {
		x.deadline = time.Duration(deadlineMs) * time.Millisecond
	}
	if x.deadline > s.cfg.MaxDeadline {
		x.deadline = s.cfg.MaxDeadline
	}
	return x
}

// close is the epilogue: the latency and inflight accounting of an
// admitted request, then the request span and access-log line — written
// before inflight.Done, so no line trails a finished Drain.
func (s *Server) close(x *exchange) {
	if x.admitted {
		s.stats.latencyNs.Observe(time.Since(x.start).Nanoseconds())
		s.stats.inflight.Add(-1)
	}
	if x.rec != nil {
		s.finishRequest(x.rec, x.start)
	}
	if x.admitted {
		s.inflight.Done()
	}
}

// note records the request's outcome for its span and access-log line.
func (x *exchange) note(outcome string) {
	if x.rec != nil {
		x.rec.outcome = outcome
	}
}

// acquire takes an admission-queue slot and waits for a pool token
// under the request deadline, the server's lifetime and client (nil for
// detached leaders; a stream's connection). On success it records the
// queue wait; otherwise it has answered the request (429, 503, or
// nothing for a departed client) and returns ok false.
func (s *Server) acquire(x *exchange, client <-chan struct{}) (pool *engine.Pool, queueWait time.Duration, ok bool) {
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.stats.rejectedQueue.Add(1)
		s.shed(x.w, http.StatusTooManyRequests, "admission queue full")
		return nil, 0, false
	}
	defer s.queued.Add(-1)
	waitStart := time.Now()
	select {
	case pool = <-s.free:
	case <-time.After(x.deadline):
		s.stats.deadlineExceeded.Add(1)
		s.shed(x.w, http.StatusServiceUnavailable, "deadline exceeded waiting for a pool")
		return nil, 0, false
	case <-s.baseCtx.Done():
		s.stats.rejectedDraining.Add(1)
		s.shed(x.w, http.StatusServiceUnavailable, "shutting down")
		return nil, 0, false
	case <-client:
		return nil, 0, false
	}
	queueWait = time.Since(waitStart)
	s.stats.queueWaitNs.Observe(queueWait.Nanoseconds())
	s.stats.admitted.Add(1)
	x.note("search")
	if x.rec != nil {
		x.rec.queueNs = queueWait.Nanoseconds()
	}
	if x.trace != "" {
		s.cfg.Tracer.Record(reqtrace.Span{
			Trace: x.trace, Stage: reqtrace.StageQueue,
			StartNs: waitStart.UnixNano(), DurNs: queueWait.Nanoseconds(),
		})
	}
	return pool, queueWait, true
}

// lead is a coalesced request's leader half: acquire a pool, run work
// on it detached, settle the flight with work's value, and wait for the
// flight. settled false means the request is already answered — shed
// before a pool (the flight settles with errOverloaded, which joiners
// turn into 429), or the settle backstop fired.
//
// The work runs under the server's lifetime plus the remaining request
// budget — decoupled from the leader's connection, so a leader
// disconnect (or the backstop) does not strand the joiners, and the
// pool is reclaimed by the work goroutine no matter how the leader's
// response went. The trace rides the context into the backend (the
// shard coordinator reads it there); joiners see the leader's trace on
// the spans, which is where the work actually ran.
func lead[V any](s *Server, x *exchange, g *flights[V], key string, call *flight[V], noun string,
	work func(ctx context.Context, pool *engine.Pool) (V, error)) (queueWait time.Duration, settled bool) {
	pool, queueWait, ok := s.acquire(x, nil)
	if !ok {
		var zero V
		g.finish(key, call, zero, errOverloaded)
		return 0, false
	}
	trace := x.trace
	budget := x.deadline - queueWait
	ctx, cancel := context.WithTimeout(s.baseCtx, budget)
	ctx = reqtrace.NewContext(ctx, trace)
	go func() {
		defer cancel()
		start := time.Now()
		v, err := work(ctx, pool)
		s.recordWork(trace, start, err)
		s.free <- pool
		g.finish(key, call, v, err)
	}()
	// The backstop fires only if the work did not return even after its
	// ctx expired: it is stuck in Position code that never polls
	// (user-provided games can do that). The goroutine above settles the
	// flight and reclaims the pool if it ever surfaces.
	return queueWait, s.await(x, call.done, nil, budget+searchGrace, noun+" deadline exceeded")
}

// searchGrace is the slack between a work ctx expiring and the leader
// giving up on the work returning at all (see lead).
const searchGrace = 250 * time.Millisecond

// await waits for done and reports true when it closes. Otherwise it
// answers the request itself and reports false: 504 with timeoutMsg
// once wait passes, 503 on hard shutdown, nothing once client is gone
// (nil for leaders, whose detached work outlives their connection).
func (s *Server) await(x *exchange, done, client <-chan struct{}, wait time.Duration, timeoutMsg string) bool {
	select {
	case <-done:
		return true
	case <-time.After(wait):
		s.stats.deadlineExceeded.Add(1)
		writeJSON(x.w, http.StatusGatewayTimeout, errorResponse{timeoutMsg})
	case <-s.baseCtx.Done():
		s.stats.rejectedDraining.Add(1)
		s.shed(x.w, http.StatusServiceUnavailable, "cancelled by shutdown")
	case <-client:
	}
	return false
}

// fail answers a flight's error: 429 for a leader shed before its pool,
// 504 on deadline, 503 on shutdown, 500 otherwise.
func (s *Server) fail(w http.ResponseWriter, err error, noun string) {
	switch {
	case errors.Is(err, errOverloaded):
		s.stats.rejectedQueue.Add(1)
		s.shed(w, http.StatusTooManyRequests, "coalesced leader was shed")
	case errors.Is(err, context.DeadlineExceeded):
		s.stats.deadlineExceeded.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{noun + " deadline exceeded"})
	case errors.Is(err, engine.ErrCancelled), errors.Is(err, engine.ErrPoolClosed):
		s.stats.rejectedDraining.Add(1)
		s.shed(w, http.StatusServiceUnavailable, noun+" cancelled by shutdown")
	default:
		s.stats.failed.Add(1)
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}

// recordWork records the search-stage span of a traced request: the
// pool (or backend) work, whichever endpoint it served.
func (s *Server) recordWork(trace string, start time.Time, err error) {
	if trace == "" {
		return
	}
	note := "ok"
	if err != nil {
		note = "err: " + err.Error()
	}
	s.cfg.Tracer.Record(reqtrace.Span{
		Trace: trace, Stage: reqtrace.StageSearch,
		StartNs: start.UnixNano(), DurNs: time.Since(start).Nanoseconds(),
		Note: note,
	})
}

// statusWriter captures the response status once so the request span
// and access log can report it without touching every write site.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

// Flush keeps a traced solve stream's frames flowing.
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// accessRecord accumulates one request's identity and outcome as the
// handler learns them; finishRequest turns it into the request span and
// the access-log line. Only allocated for traced or logged requests.
type accessRecord struct {
	sw      *statusWriter
	trace   string
	game    string
	pos     string
	depth   int
	outcome string // cache-hit | coalesced | search (ran on a pool) | degraded | "" (failed before admission)
	queueNs int64
}

// accessLine is the JSONL access-log schema: one self-contained line per
// request, so request-level data survives without a trace scrape.
type accessLine struct {
	TS      string `json:"ts"`
	Trace   string `json:"trace,omitempty"`
	Game    string `json:"game,omitempty"`
	Pos     string `json:"pos,omitempty"`
	Depth   int    `json:"depth"`
	Outcome string `json:"outcome,omitempty"`
	QueueNs int64  `json:"queue_ns"`
	TotalNs int64  `json:"total_ns"`
	Status  int    `json:"status"`
}

func (s *Server) finishRequest(rec *accessRecord, start time.Time) {
	totalNs := time.Since(start).Nanoseconds()
	status := rec.sw.status
	if status == 0 {
		status = http.StatusOK
	}
	if rec.trace != "" {
		note := strconv.Itoa(status)
		if rec.outcome != "" {
			note += " " + rec.outcome
		}
		s.cfg.Tracer.Record(reqtrace.Span{
			Trace: rec.trace, Stage: reqtrace.StageRequest,
			StartNs: start.UnixNano(), DurNs: totalNs,
			Note: note,
		})
	}
	if s.cfg.AccessLog == nil {
		return
	}
	b, err := json.Marshal(accessLine{
		TS:      start.UTC().Format(time.RFC3339Nano),
		Trace:   rec.trace,
		Game:    rec.game,
		Pos:     rec.pos,
		Depth:   rec.depth,
		Outcome: rec.outcome,
		QueueNs: rec.queueNs,
		TotalNs: totalNs,
		Status:  status,
	})
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.accessMu.Lock()
	_, _ = s.cfg.AccessLog.Write(b)
	s.accessMu.Unlock()
}

// keyPosition strips the "<game>|" prefix off a position key, recovering
// the canonical position string for the response.
func keyPosition(posKey string) string {
	for i := 0; i < len(posKey); i++ {
		if posKey[i] == '|' {
			return posKey[i+1:]
		}
	}
	return posKey
}

// shed writes an overload response with the Retry-After hint.
func (s *Server) shed(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	writeJSON(w, status, errorResponse{msg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	status, code := "ok", http.StatusOK
	if draining {
		// 503 takes a draining instance out of load-balancer rotation.
		status, code = "draining", http.StatusServiceUnavailable
	}
	backend := "local"
	if s.cfg.Backend != nil {
		backend = "shard"
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"backend":     backend,
		"uptime_s":    time.Since(s.start).Seconds(),
		"pools":       s.cfg.Pools,
		"queue_depth": s.cfg.QueueDepth,
		"queued":      s.queued.Load(),
		"inflight":    s.stats.inflight.Load(),
		"cache_len":   s.cache.len(),
	})
}

// Drain performs the graceful shutdown sequence: stop admitting, wait
// for every in-flight request to be answered, then cancel any detached
// searches still running and close the pools. If ctx expires before the
// requests are answered, the in-flight searches are cancelled early —
// their handlers still respond (with 5xx), so no request is dropped
// without a response — and Drain returns ctx.Err() once they have.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if already {
		return nil
	}
	quiesced := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(quiesced)
	}()
	var err error
	select {
	case <-quiesced:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel() // cancel in-flight searches; handlers respond 5xx
		<-quiesced
	}
	// Handlers are all answered. Cancel searches that outlived their
	// leader (504 backstop) and close the pools as their searches hand
	// them back. A search wedged in Position code that never polls can
	// hold its pool past ctx; those pools are closed by a reaper as they
	// surface rather than holding Drain hostage.
	s.baseCancel()
	for i := 0; i < s.cfg.Pools; i++ {
		select {
		case p := <-s.free:
			if p != nil {
				p.Close()
			}
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
			remaining := s.cfg.Pools - i
			go func() {
				for j := 0; j < remaining; j++ {
					if p := <-s.free; p != nil {
						p.Close()
					}
				}
			}()
			return err
		}
	}
	return err
}

// Stats returns a snapshot of the serve counters (for tests and the
// gtserve shutdown report).
func (s *Server) Stats() map[string]int64 {
	return map[string]int64{
		"requests":          s.stats.requests.Load(),
		"admitted":          s.stats.admitted.Load(),
		"rejected_queue":    s.stats.rejectedQueue.Load(),
		"rejected_draining": s.stats.rejectedDraining.Load(),
		"coalesced":         s.stats.coalesced.Load(),
		"cache_hits":        s.stats.cacheHits.Load(),
		"cache_misses":      s.stats.cacheMisses.Load(),
		"deadline_exceeded": s.stats.deadlineExceeded.Load(),
		"completed":         s.stats.completed.Load(),
		"failed":            s.stats.failed.Load(),
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
