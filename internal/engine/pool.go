package engine

// This file is the pooled work-stealing execution substrate of the parallel
// cascade. A goroutine, channel and searcher struct per speculative
// sibling at every interior node, plus one contended atomic node counter
// bumped on every visit, is a scheduler tax the paper never modeled; on
// split-dense trees it costs 2-3x the wall clock of this pool
// (EXPERIMENTS E12). Here a fixed set of worker goroutines is created
// once per pool — resident across searches for long-lived owners (the
// exported Pool, held by the gtserve service), once per call for the
// one-shot entry points; speculative siblings become tasks pushed onto the
// owning worker's lock-free Chase-Lev deque, idle workers steal from the
// top, and the splitting worker joins by helping (popping its own deque,
// then stealing) until a per-split join counter drains. Beta-cutoff
// cancellation propagates through a per-split abort flag checked at task
// dequeue and every checkMask nodes inside the sequential sub-searches;
// node counts live in per-worker plain counters summed once at the end.
//
// The cascade semantics are unchanged: at every spine node the leftmost
// child is searched first with the full window ("young brothers wait"),
// the remaining siblings run speculatively with the window sharpened by
// completed siblings, and sibling results are merged in completion order
// until a cutoff.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// seqSplitDepth is the default horizon below which subtrees are searched in
// place: scheduling a task costs more than searching a 2-ply subtree.
const seqSplitDepth = 2

// poolConfig shapes how a pool splits work. The zero value is the
// engine's one search discipline: recursive YBWC above the default
// horizon, which newPool applies. The other settings exist for the
// root-split baseline and for tests.
type poolConfig struct {
	// horizon is the remaining depth at or below which a subtree is
	// searched sequentially in place rather than split into tasks.
	horizon int
	// noYBW is the root-split baseline: every root move becomes a task
	// with the full window and there is no young-brothers phase 1. Only
	// meaningful together with a depth-1 horizon, which also keeps every
	// stolen root child on plain negamax.
	noYBW bool
	// watermark is the demand-driven split gate: a worker opens a split
	// point only while its own deque holds at most this many queued
	// tasks (0 — split only when the queue has drained, i.e. thieves are
	// actually hungry). Only TestYBWCNestedAbortDrain raises it, to force
	// eager splitting.
	watermark int
}

// task is one speculative sibling search, embedded in its split point's
// task slab so a split costs O(1) allocations, not O(branching).
// fn-tasks are the second task kind (fanout): instead of a sibling
// position they carry a function run with the executing worker — the hook
// other engines (the proof-number solver) use to borrow the resident
// worker set without duplicating the park/steal machinery.
type task struct {
	sp    *splitPoint
	pos   Position
	idx   int // move index at the split node
	depth int // remaining depth for the child search
	fn    func(w *worker)
}

// splitPoint coordinates the speculative siblings of one spine node: the
// join counter the parent blocks on, the shared (monotonically raised)
// alpha that sharpens later siblings' windows, and the abort flag that
// propagates a beta cutoff to tasks still queued or running.
type splitPoint struct {
	up      *splitPoint  // enclosing split, for chained abort checks
	shared  atomic.Int64 // freshest alpha, read once at task start
	pending atomic.Int32 // tasks not yet finished or skipped
	abort   atomic.Bool  // set on beta cutoff; never cleared while live

	mu      sync.Mutex
	beta    int64
	alpha   int64 // current sharpened alpha (mirrors the sequential loop)
	best    int64
	bestIdx int

	// Telemetry (nil/zero when the search is uninstrumented): the pool's
	// recorder, the wall-clock open time of a traced split (0 when the
	// search is untraced), and the moment the beta cutoff was raised
	// (read by the joining owner after pending drains — the seq-cst
	// pending counter orders that read after the write).
	rec    *telemetry.Recorder
	openNs int64
	cutNs  int64

	tasks []task
}

// aborted reports whether this split or any enclosing one has been cut.
func (sp *splitPoint) aborted() bool {
	for s := sp; s != nil; s = s.up {
		if s.abort.Load() {
			return true
		}
	}
	return false
}

// complete merges one finished sibling. Results are merged in completion
// order and ignored once a cutoff has been found. ok is false for
// siblings that were skipped or interrupted; their (partial) values must
// not be merged.
func (sp *splitPoint) complete(idx int, v int64, ok bool) {
	if ok {
		sp.mu.Lock()
		if !sp.abort.Load() {
			if v > sp.best {
				sp.best = v
				sp.bestIdx = idx
			}
			if sp.best > sp.alpha {
				sp.alpha = sp.best
				sp.shared.Store(sp.alpha)
			}
			if sp.alpha >= sp.beta {
				sp.abort.Store(true) // pre-empt the remaining siblings
				if sp.rec != nil {
					sp.cutNs = sp.rec.Now() // abort-to-drain latency start
				}
			}
		}
		sp.mu.Unlock()
	}
	sp.pending.Add(-1)
}

// ---------------------------------------------------------------------------
// Chase-Lev work-stealing deque

// taskRing is the growable circular buffer behind a deque. Stale rings stay
// reachable by in-flight steals; the GC reclaims them.
type taskRing struct {
	mask int64
	slot []atomic.Pointer[task]
}

func newTaskRing(capacity int64) *taskRing {
	return &taskRing{mask: capacity - 1, slot: make([]atomic.Pointer[task], capacity)}
}

func (r *taskRing) get(i int64) *task    { return r.slot[i&r.mask].Load() }
func (r *taskRing) put(i int64, t *task) { r.slot[i&r.mask].Store(t) }

// deque is a lock-free work-stealing deque (Chase & Lev 2005): the owner
// pushes and pops at the bottom (LIFO, preserving the sequential move
// order), thieves steal from the top (FIFO, taking the most speculative
// siblings first). Go's sync/atomic operations are sequentially
// consistent, which the bottom/top handshake in pop relies on.
type deque struct {
	top    atomic.Int64
	bottom atomic.Int64
	buf    atomic.Pointer[taskRing]
}

func (d *deque) init() { d.buf.Store(newTaskRing(64)) }

// push appends a task at the bottom. Owner-only.
func (d *deque) push(t *task) {
	b := d.bottom.Load()
	tp := d.top.Load()
	r := d.buf.Load()
	if b-tp > r.mask {
		grown := newTaskRing(2 * (r.mask + 1))
		for i := tp; i < b; i++ {
			grown.put(i, r.get(i))
		}
		d.buf.Store(grown)
		r = grown
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

// pop removes the most recently pushed task. Owner-only.
func (d *deque) pop() *task {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	tp := d.top.Load()
	if tp > b {
		// Empty: restore the canonical state.
		d.bottom.Store(tp)
		return nil
	}
	t := d.buf.Load().get(b)
	if tp == b {
		// Last element: race against a thief for it.
		if !d.top.CompareAndSwap(tp, tp+1) {
			t = nil
		}
		d.bottom.Store(tp + 1)
	}
	return t
}

// steal removes the oldest task. Safe from any goroutine. sawWork
// reports whether the deque was ever observed non-empty — it separates
// "victim had nothing" from a real steal attempt, so the telemetry's
// steal-efficiency ratio measures contention, not idle spinning. retries
// counts the CAS rounds lost to other thieves (or the owner's pop) before
// this attempt resolved; its distribution is the HistStealRetries family.
func (d *deque) steal() (t *task, sawWork bool, retries int64) {
	for {
		tp := d.top.Load()
		b := d.bottom.Load()
		if tp >= b {
			return nil, sawWork, retries
		}
		sawWork = true
		t = d.buf.Load().get(tp)
		if d.top.CompareAndSwap(tp, tp+1) {
			return t, true, retries
		}
		// Lost the race; re-read indices and try again.
		retries++
	}
}

// ---------------------------------------------------------------------------
// Worker pool

// worker is one pool member. It embeds a searcher, so the sequential
// negamax (with its transposition table, scratch move buffers and plain
// node counter) runs unchanged on pool workers; the pad keeps the thief-
// contended deque words off the cache line of the owner-hot counter.
type worker struct {
	searcher
	pool   *pool
	id     int
	spFree []*splitPoint
	_      [64]byte // separate owner-hot fields from the stolen-from deque
	dq     deque
	rng    uint64
}

// pool is a resident worker set. The goroutine calling runSearch becomes
// worker 0 for that search; workers 1..n-1 run idleLoop for the pool's
// whole lifetime, parking on a condition variable between searches so an
// idle resident pool costs nothing. One-shot callers (searchPooled) build
// a pool, run one search and close it — the construction cost they pay is
// exactly what the exported Pool amortizes across requests.
type pool struct {
	workers []*worker
	cfg     poolConfig          // split-shaping knobs, fixed at construction
	rec     *telemetry.Recorder // nil when the search is uninstrumented
	row     int                 // telemetry shard of worker 0; worker i's span row is row+i
	stop    atomic.Bool         // current search cancelled or a worker panicked
	active  atomic.Bool         // a search is in flight; helpers spin, not park
	closed  atomic.Bool         // pool shut down; helpers exit

	parkMu   sync.Mutex // guards the active/closed transitions helpers wait on
	parkCond *sync.Cond
	wg       sync.WaitGroup // helper goroutines

	failMu  sync.Mutex
	failure error // first recovered panic, wrapped in ErrSearchPanic

	// The current search's span sink: the recorder's tracer and the trace
	// ID of the search ctx, written by runSearch before any task exists
	// (the deque atomics order every worker's read after the write). tr
	// is nil when the recorder has no tracer or the ctx no trace ID, and
	// that nil check is the one branch each span site pays.
	tr    *reqtrace.Tracer
	trace string
}

// fail records the first worker panic and aborts the search. Setting the
// stop flag pre-empts every queued task (runTask's skip path completes
// them with ok=false), so open joins drain and finish returns normally;
// the panic surfaces as an error from the search entry point instead of
// killing the worker goroutine — and with it the process.
func (p *pool) fail(v any) {
	p.failMu.Lock()
	if p.failure == nil {
		p.failure = fmt.Errorf("%w: %v", ErrSearchPanic, v)
	}
	p.failMu.Unlock()
	p.stop.Store(true)
}

// err returns the first recorded worker panic, if any. Call after finish:
// the pool has quiesced, so no later fail can race the read.
func (p *pool) err() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failure
}

// newPool builds a pool of workers (resolved, > 0) with the caller of
// runSearch as worker 0 and launches the helper goroutines, which
// immediately park. Worker i writes telemetry shard shardBase+i of rec
// and seeds its steal RNG from that global index, so pools sharing one
// recorder on disjoint shard ranges also draw distinct victim sequences.
func newPool(workers int, table *Table, rec *telemetry.Recorder, shardBase int, cfg poolConfig) *pool {
	if cfg.horizon <= 0 {
		cfg.horizon = seqSplitDepth
	}
	p := &pool{workers: make([]*worker, workers), cfg: cfg, rec: rec, row: shardBase}
	p.parkCond = sync.NewCond(&p.parkMu)
	for i := range p.workers {
		w := &worker{pool: p, id: i, rng: uint64(shardBase+i)*0x9e3779b97f4a7c15 + 1}
		w.table = table
		w.stop = &p.stop
		w.tm = rec.Shard(shardBase + i) // nil when rec is nil
		w.dq.init()
		p.workers[i] = w
	}
	for _, w := range p.workers[1:] {
		p.wg.Add(1)
		go func(w *worker) {
			defer p.wg.Done()
			p.idleLoop(w)
		}(w)
	}
	return p
}

// runSearch executes one search on the resident pool, with the calling
// goroutine as worker 0 driving body (the phase-1 spine, or the root
// split of the tree-splitting baseline). Calls must be serialized by the
// owner — the exported Pool holds a mutex across it; the one-shot entry
// points call it exactly once.
//
// Reading the per-worker node counters here without waiting for the
// helpers is safe: body returns only after every split point it opened
// has joined, so each helper's last counter write happens-before the
// owner's pending.Load()==0 (both sequentially consistent atomics) and
// the helpers are back to empty-handed spinning or parking.
func (p *pool) runSearch(ctx context.Context, body func(w0 *worker) (int64, int)) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, cancelErr(err)
	}
	p.stop.Store(false)
	p.failMu.Lock()
	p.failure = nil
	p.failMu.Unlock()
	p.tr, p.trace = nil, ""
	if tr := p.rec.Tracer(); tr != nil {
		if id := reqtrace.FromContext(ctx); id != "" {
			p.tr, p.trace = tr, id
		}
	}

	var watchWG sync.WaitGroup
	watch := make(chan struct{})
	if done := ctx.Done(); done != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-done:
				p.stop.Store(true)
			case <-watch:
			}
		}()
	}
	if len(p.workers) > 1 {
		p.parkMu.Lock()
		p.active.Store(true)
		p.parkMu.Unlock()
		p.parkCond.Broadcast()
	}

	var v int64
	var best int
	// Worker 0's spine runs on the caller's stack, outside runTask's
	// recover, so a phase-1 panic unwinds to here. Splits are opened and
	// joined within a single search frame, so at any point of the phase-1
	// descent no ancestor frame holds an undrained split — failing the
	// pool and returning is a clean teardown.
	func() {
		defer func() {
			if r := recover(); r != nil {
				p.fail(r)
			}
		}()
		v, best = body(p.workers[0])
	}()

	close(watch)
	watchWG.Wait()
	p.active.Store(false)
	var nodes int64
	for _, w := range p.workers {
		nodes += w.nodes
		if w.tm != nil {
			w.tm.Nodes.Add(w.nodes) // fold in at the quiesce point
		}
		w.nodes = 0    // the pool outlives the search; counters are per search
		w.halt = false // likewise the cancellation latch
	}
	if err := p.err(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, cancelErr(err)
	}
	return Result{Value: int32(v), Best: best, Nodes: nodes}, nil
}

// cancelErr maps a non-nil ctx.Err() to the search error contract: plain
// cancellation keeps the bare ErrCancelled sentinel (existing callers
// compare with ==), while a deadline expiry additionally carries
// context.DeadlineExceeded in the wrap chain so callers can tell a
// timed-out search — whose partial Result must not be trusted — from an
// explicit cancel. errors.Is(err, ErrCancelled) matches both.
func cancelErr(ctxErr error) error {
	if errors.Is(ctxErr, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCancelled, context.DeadlineExceeded)
	}
	return ErrCancelled
}

// close shuts the resident pool down: helpers are woken if parked and
// exit their loops. Must not be called concurrently with runSearch.
func (p *pool) close() {
	p.parkMu.Lock()
	p.closed.Store(true)
	p.parkMu.Unlock()
	p.parkCond.Broadcast()
	p.wg.Wait()
}

// idleLoop is the life of workers 1..n-1: while a search is active, steal,
// run, back off (capped at a 1ms sleep, so task discovery latency stays
// bounded); between searches, park on the condition variable so a
// resident pool costs nothing while idle. The active flag is re-checked
// under parkMu, and runSearch raises it under the same lock before
// broadcasting, so a wakeup cannot be lost.
func (p *pool) idleLoop(w *worker) {
	backoff := 0
	for {
		if p.closed.Load() {
			return
		}
		if !p.active.Load() {
			p.parkMu.Lock()
			for !p.active.Load() && !p.closed.Load() {
				p.parkCond.Wait()
			}
			p.parkMu.Unlock()
			backoff = 0
			continue
		}
		t := w.dq.pop()
		if t == nil {
			t = p.trySteal(w)
		}
		if t != nil {
			w.runTask(t)
			backoff = 0
			continue
		}
		backoff++
		switch {
		case backoff < 32:
			runtime.Gosched()
		case backoff < 64:
			time.Sleep(20 * time.Microsecond)
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// trySteal scans the other workers' deques once, starting at a random
// victim so thieves do not convoy on worker 0.
func (p *pool) trySteal(w *worker) *task {
	n := len(p.workers)
	if n == 1 {
		return nil
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := p.workers[(off+i)%n]
		if v == w {
			continue
		}
		t, sawWork, retries := v.dq.steal()
		if w.tm != nil && sawWork {
			w.tm.StealAttempts.Add(1)
			w.tm.Hist[telemetry.HistStealRetries].Observe(retries)
		}
		if t != nil {
			if w.tm != nil {
				w.tm.Steals.Add(1)
				if p.tr != nil {
					w.span(reqtrace.StageSteal, time.Now().UnixNano(), 0, "")
				}
			}
			return t
		}
	}
	return nil
}

// nextRand is a xorshift64 step for steal-victim randomization.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// runTask executes one speculative sibling, reading the freshest shared
// alpha at start (a stale, wider window only loses sharpness, never
// correctness). Above the sequential horizon the sibling re-enters the
// splittable searcher with the split as its enclosing abort scope, so
// helpers working a stolen subtree open split points of their own
// (recursive YBWC); at or below the horizon it runs the plain sequential
// negamax. Siblings cut or interrupted on the
// way report ok=false so their partial values are never merged.
func (w *worker) runTask(t *task) {
	if t.fn != nil {
		w.runFn(t)
		return
	}
	sp := t.sp
	if w.pool.stop.Load() || sp.aborted() {
		if w.tm != nil {
			w.noteAbort(t) // skipped before running
		}
		sp.complete(t.idx, 0, false)
		return
	}
	var startNs int64
	if w.tm != nil {
		w.tm.Tasks.Add(1)
		startNs = w.pool.rec.Now()
	}
	prev := w.sp
	w.sp = sp
	// Position implementations are user code and may panic mid-search.
	// Confine the blast radius to this task: record the panic on the pool
	// (aborting the search) and complete the sibling with ok=false so the
	// owner's join still drains. Without this a panic on a helper worker
	// would crash the whole process.
	defer func() {
		w.sp = prev
		if r := recover(); r != nil {
			w.pool.fail(r)
			if w.tm != nil {
				w.noteAbort(t)
			}
			sp.complete(t.idx, 0, false)
		}
	}()
	var v int64
	if t.depth > w.pool.cfg.horizon {
		// Recursive YBWC: the stolen subtree runs the full cascade and may
		// split again. The enclosing split chains the abort scopes, so a
		// beta cutoff anywhere above pre-empts every nested split here.
		v, _ = w.search(t.pos, t.depth, -sp.beta, -sp.shared.Load(), sp, false)
	} else {
		v, _ = w.negamax(t.pos, t.depth, -sp.beta, -sp.shared.Load(), false)
	}
	ok := !w.pool.stop.Load() && !sp.aborted()
	if w.tm != nil {
		w.tm.Hist[telemetry.HistTaskRunNs].Observe(w.pool.rec.Now() - startNs)
		if !ok {
			w.noteAbort(t) // pre-empted mid-search
		}
	}
	sp.complete(t.idx, -v, ok)
}

// runFn executes one fanout task with the same panic isolation as the
// speculative siblings: a panic fails the pool (aborting every sibling
// invocation through the stop flag) instead of killing the process, and
// the pending decrement runs regardless so the owner's join drains.
func (w *worker) runFn(t *task) {
	sp := t.sp
	defer func() {
		if r := recover(); r != nil {
			w.pool.fail(r)
		}
		sp.pending.Add(-1)
	}()
	if !w.pool.stop.Load() {
		t.fn(w)
	}
}

// fanout runs fn once per pool worker: worker 0 pushes one fn-task per
// helper onto its deque (the parked helpers wake and steal them the
// moment runSearch raises active) and runs its own invocation in place,
// then helps until the join drains. fn must poll p.stop (via the caller's
// stop predicate) and return promptly on cancellation; runSearch maps a
// cancelled ctx onto the usual ErrCancelled contract.
func (p *pool) fanout(ctx context.Context, fn func(w *worker)) error {
	_, err := p.runSearch(ctx, func(w0 *worker) (int64, int) {
		if n := len(p.workers); n > 1 {
			sp := &splitPoint{}
			sp.pending.Store(int32(n - 1))
			sp.tasks = make([]task, n-1)
			for i := n - 2; i >= 0; i-- {
				sp.tasks[i] = task{sp: sp, fn: fn}
				w0.dq.push(&sp.tasks[i])
			}
			fn(w0)
			w0.join(sp)
		} else {
			fn(w0)
		}
		return 0, -1
	})
	return err
}

// noteAbort accounts one aborted task: the plain counter, the nested-abort
// counter when the cutoff came from an *ancestor* split (the chained abort
// rule pre-empting a whole speculative subtree rather than a local
// cutoff), and an abort span when the search is traced. Only called when
// w.tm != nil.
func (w *worker) noteAbort(t *task) {
	w.tm.Aborts.Add(1)
	if sp := t.sp; !sp.abort.Load() && sp.aborted() {
		w.tm.NestedAborts.Add(1)
	}
	if w.pool.tr != nil {
		w.span(reqtrace.StageAbort, time.Now().UnixNano(), 0, "")
	}
}

// span records one engine span of the current (traced) search on this
// worker's row. Callers check w.pool.tr != nil first.
func (w *worker) span(stage string, startNs, durNs int64, note string) {
	p := w.pool
	p.tr.Record(reqtrace.Span{
		Trace: p.trace, Stage: stage, StartNs: startNs, DurNs: durNs,
		Worker: p.row + w.id, Note: note,
	})
}

// join blocks the splitting worker on the split's counter by helping: pop
// the own deque (the split's own siblings, in move order), then steal, and
// only then yield. Every pending task is either in a deque (some worker
// will run it) or already running, so the loop terminates.
func (w *worker) join(sp *splitPoint) {
	var joinNs int64
	if sp.openNs != 0 {
		joinNs = time.Now().UnixNano()
	}
	for sp.pending.Load() > 0 {
		if t := w.dq.pop(); t != nil {
			w.runTask(t)
			continue
		}
		if t := w.pool.trySteal(w); t != nil {
			w.runTask(t)
			continue
		}
		runtime.Gosched()
	}
	if sp.rec == nil {
		return
	}
	// Drained. Record the cutoff-to-drain latency (if a beta cutoff was
	// raised here) and, when traced, the split's lifetime with the
	// join-to-drain wait nested inside it.
	if w.tm != nil && sp.cutNs != 0 {
		drainNs := sp.rec.Now() - sp.cutNs
		w.tm.AbortDrains.Add(1)
		w.tm.AbortDrainNs.Add(drainNs)
		w.tm.Hist[telemetry.HistAbortDrainNs].Observe(drainNs)
	}
	if joinNs != 0 {
		endNs := time.Now().UnixNano()
		note := "tasks=" + strconv.Itoa(len(sp.tasks))
		if sp.abort.Load() {
			note += " aborted"
		}
		w.span(reqtrace.StageSplit, sp.openNs, endNs-sp.openNs, note)
		w.span(reqtrace.StageJoin, joinNs, endNs-joinNs, "")
	}
}

// newSplit readies a split point over moves[1:] (or all moves when
// firstIncluded) and pushes the sibling tasks in reverse, so the owner's
// LIFO pops visit them in the sequential move order while thieves take the
// most speculative ones from the far end.
func (w *worker) newSplit(up *splitPoint, alpha, beta, best int64, bestIdx int, moves []Position, depth, from int) *splitPoint {
	var sp *splitPoint
	if n := len(w.spFree); n > 0 {
		sp = w.spFree[n-1]
		w.spFree = w.spFree[:n-1]
	} else {
		sp = new(splitPoint)
	}
	sp.up = up
	sp.beta = beta
	sp.alpha = alpha
	sp.best = best
	sp.bestIdx = bestIdx
	sp.abort.Store(false)
	sp.shared.Store(alpha)
	sp.rec = w.pool.rec
	sp.cutNs = 0
	if w.pool.tr != nil {
		sp.openNs = time.Now().UnixNano()
	}
	n := len(moves) - from
	if cap(sp.tasks) < n {
		sp.tasks = make([]task, n)
	} else {
		sp.tasks = sp.tasks[:n]
	}
	sp.pending.Store(int32(n))
	for i := len(moves) - 1; i >= from; i-- {
		sp.tasks[i-from] = task{sp: sp, pos: moves[i], idx: i, depth: depth}
		w.dq.push(&sp.tasks[i-from])
	}
	if w.tm != nil {
		w.tm.Splits.Add(1)
		if up != nil {
			w.tm.NestedSplits.Add(1)
		}
		// depth is the remaining depth of the sibling subtrees; the split
		// node itself sits one ply above.
		w.tm.Hist[telemetry.HistSplitDepth].Observe(int64(depth) + 1)
		w.tm.ObserveDeque(w.dq.bottom.Load() - w.dq.top.Load())
	}
	return sp
}

// releaseSplit recycles a joined split point. Safe: pending has hit zero,
// so no other worker holds a reference (complete's counter decrement is
// each sibling's final access).
func (w *worker) releaseSplit(sp *splitPoint) {
	clear(sp.tasks) // drop Position references for the GC
	sp.tasks = sp.tasks[:0]
	sp.up = nil
	sp.rec = nil
	sp.openNs, sp.cutNs = 0, 0
	// Recursive YBWC nests splits (one live per frame of the cascade plus
	// the recycled ones), so the free list is sized for deep nesting, not
	// just the spine's churn.
	if len(w.spFree) < 32 {
		w.spFree = append(w.spFree, sp)
	}
}

// search is the pooled cascade: leftmost child first (recursively, exactly
// as the sequential search would), then the remaining children as
// stealable speculative tasks with the window established by the first.
// Stolen tasks re-enter this function (recursive YBWC), so the cascade
// repeats inside the speculative subtree, down to the horizon.
func (w *worker) search(pos Position, depth int, alpha, beta int64, encl *splitPoint, wantBest bool) (int64, int) {
	if w.pool.stop.Load() || (encl != nil && encl.aborted()) {
		return alpha, -1
	}
	// Shallow (or horizonless) subtrees are cheaper in place than scheduled.
	if depth <= w.pool.cfg.horizon {
		prev := w.sp
		w.sp = encl
		v, b := w.negamax(pos, depth, alpha, beta, wantBest)
		w.sp = prev
		return v, b
	}
	w.nodes++
	moves, scratch := w.genMoves(pos)
	if len(moves) == 0 {
		w.putMoves(moves, scratch)
		return int64(pos.Evaluate()), -1
	}

	// Root-split baseline: all children become tasks with the caller's
	// (full) window and no phase-1 eldest brother. With the depth-1 horizon
	// SearchRootSplit configures, the root is the only node above the
	// horizon, so this reproduces classical tree splitting exactly.
	if w.pool.cfg.noYBW {
		sp := w.newSplit(encl, alpha, beta, -scoreInf, -1, moves, depth-1, 0)
		w.putMoves(moves, scratch)
		w.join(sp)
		best, bestIdx := sp.best, sp.bestIdx
		w.releaseSplit(sp)
		if !wantBest {
			return best, -1
		}
		return best, bestIdx
	}

	// Phase 1: the leftmost child establishes the window, exactly as the
	// sequential algorithm would.
	v0, _ := w.search(moves[0], depth-1, -beta, -alpha, encl, false)
	best := -v0
	bestIdx := 0
	if best > alpha {
		alpha = best
	}
	if alpha >= beta || len(moves) == 1 ||
		w.pool.stop.Load() || (encl != nil && encl.aborted()) {
		w.putMoves(moves, scratch)
		return best, bestIdx
	}

	// Splitting pays deque, join and merge machinery per sibling, so it
	// is demand-driven: a worker opens a split point only when its own
	// deque has drained — thieves took everything queued (or nothing was
	// ever queued: the spine). A worker still holding queued tasks has
	// already exposed unclaimed parallelism, so it searches the siblings
	// in place instead; the recursion re-checks at every node, so the
	// subtree starts splitting again the moment the queue empties.
	// Without this gate every interior node above the horizon pays the
	// split overhead (~30% wall clock on the pessimal tree); with it,
	// split points track steal demand. Keeping one or two tasks queued
	// ahead of demand measured no better (EXPERIMENTS E12).
	if w.dq.bottom.Load()-w.dq.top.Load() > int64(w.pool.cfg.watermark) {
		for i := 1; i < len(moves); i++ {
			v, _ := w.search(moves[i], depth-1, -beta, -alpha, encl, false)
			if -v > best {
				best = -v
				bestIdx = i
			}
			if best > alpha {
				alpha = best
			}
			if alpha >= beta || w.pool.stop.Load() ||
				(encl != nil && encl.aborted()) {
				break
			}
		}
		w.putMoves(moves, scratch)
		if !wantBest {
			return best, -1
		}
		return best, bestIdx
	}

	// Phase 2: speculative siblings as tasks; help until the join drains.
	sp := w.newSplit(encl, alpha, beta, best, bestIdx, moves, depth-1, 1)
	w.putMoves(moves, scratch) // tasks hold their own Position copies
	w.join(sp)
	best, bestIdx = sp.best, sp.bestIdx
	w.releaseSplit(sp)
	if !wantBest {
		return best, -1
	}
	return best, bestIdx
}

// searchPooled runs the cascade on a fresh one-shot pool, with the
// calling goroutine as worker 0 (zero handoff cost: with one worker the
// search is plainly sequential). Long-lived callers should hold a Pool
// instead and amortize the construction.
//
// A one-shot pool writes telemetry shards 0..workers-1 of rec, so
// successive one-shot searches on one recorder accumulate into the same
// per-worker rows; resident Pools take fresh disjoint ranges instead.
func searchPooled(ctx context.Context, pos Position, depth, workers int, table *Table, rec *telemetry.Recorder, cfg poolConfig) (Result, error) {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	p := newPool(workers, table, rec, 0, cfg)
	defer p.close()
	return p.runSearch(ctx, func(w0 *worker) (int64, int) {
		return w0.search(pos, depth, -scoreInf, scoreInf, nil, true)
	})
}

// SearchRootSplit is the classical tree-splitting baseline: every root
// move is a task, searched with the shared, atomically tightened alpha; no
// phase-1 spine, no cutoffs (the root window stays full), so its
// speculation waste is preserved for comparison. It is the pooled cascade
// configured with a depth-1 horizon — the root is the only split node, and
// every stolen root child runs plain negamax — rather than a separate
// entry point.
func SearchRootSplit(ctx context.Context, pos Position, depth, workers int) (Result, error) {
	horizon := depth - 1
	if horizon < 1 {
		horizon = 1
	}
	return searchPooled(ctx, pos, depth, workers, nil, nil, poolConfig{horizon: horizon, noYBW: true})
}
