// Package engine is the practical, wall-clock-parallel counterpart of the
// paper's step-model algorithms: a goroutine-based game evaluator for real
// games exposed through the Position interface.
//
// The parallel search uses the paper's central idea — spend extra
// processors on the nodes a left-to-right sequential search would reach
// soonest — in its engineering form: at every node the first (leftmost)
// successor is searched before the others ("young brothers wait", the
// cascade of Section 2's P-SOLVE), and the remaining successors are then
// searched concurrently with the window established by the first. A
// speculative sibling search is aborted when a cutoff is found, mirroring
// the pre-emption rule of Section 7.
//
// Execution happens on a fixed pool of worker goroutines with per-worker
// work-stealing deques (see pool.go). Speculative subtrees split again
// recursively (YBWC) wherever a worker's deque has drained; that is the
// one parallel search path, whether run one-shot through SearchParallel or
// on a resident Pool.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"gametree/internal/telemetry"
)

// Position is a game state. Implementations must be immutable values:
// Moves returns successor states and must not mutate the receiver.
type Position interface {
	// Moves returns the legal successor positions in preference order.
	// An empty slice means the position is terminal.
	Moves() []Position
	// Evaluate returns a static score from the perspective of the side
	// to move (negamax convention). It is called at terminal positions
	// and at the depth horizon.
	Evaluate() int32
}

// MoveAppender is an optional Position interface: implementations append
// their successors to dst (reusing its capacity) instead of allocating a
// fresh slice per call, letting the engine recycle per-worker move
// buffers on the hot path. AppendMoves must behave exactly like Moves.
type MoveAppender interface {
	AppendMoves(dst []Position) []Position
}

// Result reports the outcome of a search.
type Result struct {
	Value int32 // negamax value of the root (side to move's perspective)
	Best  int   // index of the best root move; -1 for terminal/depth-0 roots
	Nodes int64 // positions visited
}

// ErrCancelled is returned when the context is cancelled mid-search.
var ErrCancelled = errors.New("engine: search cancelled")

// ErrSearchPanic is returned (wrapped, with the recovered value) when a
// Position implementation panics inside a pooled search. The panic is
// confined to the worker that hit it: the pool aborts, every join drains,
// and the helper goroutines exit cleanly instead of crashing the process.
var ErrSearchPanic = errors.New("engine: panic during search")

const (
	winScore  = int32(1 << 24) // larger than any heuristic score
	scoreInf  = int64(math.MaxInt32)
	checkMask = 255 // interrupt poll frequency in nodes
)

// Search evaluates the position to the given depth with sequential
// fail-hard alpha-beta (negamax form). depth < 0 means no horizon.
func Search(pos Position, depth int) Result {
	e := &searcher{ctx: context.Background()}
	v, best := e.negamax(pos, depth, -scoreInf, scoreInf, true)
	return Result{Value: int32(v), Best: best, Nodes: e.nodes}
}

// SearchOptions configures the searches.
type SearchOptions struct {
	// Workers bounds the concurrency of SearchParallel; 0 means
	// GOMAXPROCS. The sequential searches ignore it.
	Workers int
	// Table, when non-nil, enables transposition-table probing and
	// storing. Positions must implement Hasher for it to take effect.
	Table *Table
	// Telemetry, when non-nil, attaches the search to a telemetry
	// recorder: per-worker counters (tasks, steals, splits, aborts, TT
	// traffic, deque depth) and — if the recorder holds a tracer and ctx
	// a trace ID — split, join, steal and abort spans. Nil keeps the hot
	// path uninstrumented (one nil-check branch per event).
	Telemetry *telemetry.Recorder
}

// SearchParallel evaluates the position to the given depth on a one-shot
// pool of opt.Workers worker goroutines with per-worker work-stealing
// deques, sharing opt.Table when set. It returns the same value as
// Search. Long-lived callers should hold a Pool instead and amortize the
// worker construction.
//
// Deadline contract: a search cut short by ctx never returns a partial
// Result as if complete — the Result is the zero value and the error is
// ErrCancelled, wrapping context.DeadlineExceeded when the ctx deadline
// (rather than an explicit cancel) ended the search, so
// errors.Is(err, context.DeadlineExceeded) distinguishes timeouts.
func SearchParallel(ctx context.Context, pos Position, depth int, opt SearchOptions) (Result, error) {
	opt.Table.Advance() // nil-safe
	return searchPooled(ctx, pos, depth, opt.Workers, opt.Table, opt.Telemetry, poolConfig{})
}

// searcher is the sequential search state of one goroutine: the node
// counter is a plain per-worker integer (summed by the pool at the end,
// never contended), free recycles move buffers for MoveAppender
// positions, and stop/sp carry the pool's cancellation flag and the abort
// chain of the current speculative task.
type searcher struct {
	ctx   context.Context
	table *Table           // optional shared transposition table
	stop  *atomic.Bool     // pooled: set when the search context is cancelled
	sp    *splitPoint      // pooled: abort chain of the current task
	tm    *telemetry.Shard // optional telemetry shard (this worker's, single-writer)
	nodes int64
	halt  bool         // latched by interrupted(): unwind every node, not 1-in-256
	free  [][]Position // recycled move buffers (MoveAppender positions)
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// interrupted reports whether this searcher should unwind: the pool's
// cancellation flag (one uncontended atomic load), an aborted enclosing
// split, or — for non-pooled searches — the context. It is polled every
// checkMask nodes; global triggers (stop flag, context) latch e.halt so
// that once tripped, EVERY subsequent node entry returns immediately.
// Without the latch a poll only prunes the single node it fires on and
// the siblings keep expanding — on a deep lazily-generated tree the
// unwind would take longer than the search it is cancelling. Split
// aborts are deliberately not latched: they end one speculative subtree,
// not the whole search.
func (e *searcher) interrupted() bool {
	if e.halt {
		return true
	}
	if e.stop != nil && e.stop.Load() {
		e.halt = true
		return true
	}
	if e.sp != nil && e.sp.aborted() {
		return true
	}
	if e.ctx != nil {
		select {
		case <-e.ctx.Done():
			e.halt = true
			return true
		default:
		}
	}
	return false
}

// genMoves returns the successors of pos, through a recycled per-worker
// buffer when the position opts in via MoveAppender. The second return
// value must be passed back to putMoves.
func (e *searcher) genMoves(pos Position) ([]Position, bool) {
	if ap, ok := pos.(MoveAppender); ok {
		var buf []Position
		if n := len(e.free); n > 0 {
			buf = e.free[n-1]
			e.free = e.free[:n-1]
		}
		return ap.AppendMoves(buf), true
	}
	return pos.Moves(), false
}

// putMoves recycles a buffer obtained from genMoves. The Position
// references are cleared so finished subtrees stay collectable.
func (e *searcher) putMoves(moves []Position, scratch bool) {
	if !scratch {
		return
	}
	clear(moves)
	e.free = append(e.free, moves[:0])
}

// negamax is the sequential fail-hard search. wantBest selects whether the
// best-move index is tracked (only needed at the root). When the searcher
// carries a transposition table and the position implements Hasher,
// sufficient-depth entries cut off immediately and stored best moves are
// tried first.
func (e *searcher) negamax(pos Position, depth int, alpha, beta int64, wantBest bool) (int64, int) {
	e.nodes++
	if (e.halt || e.nodes&checkMask == 0) && e.interrupted() {
		return alpha, -1
	}
	if depth == 0 {
		return int64(pos.Evaluate()), -1
	}
	moves, scratch := e.genMoves(pos)
	if len(moves) == 0 {
		e.putMoves(moves, scratch)
		return int64(pos.Evaluate()), -1
	}

	slot, alpha, beta, v, cut := e.ttProbe(pos, depth, len(moves), alpha, beta)
	if cut {
		e.putMoves(moves, scratch)
		return v, slot.best
	}
	alpha0 := alpha

	best := int64(-scoreInf)
	bestIdx := -1
	for j := 0; j < len(moves); j++ {
		i := slot.order(j)
		v, _ := e.negamax(moves[i], depth-1, -beta, -alpha, false)
		v = -v
		if v > best {
			best = v
			bestIdx = i
		}
		if best > alpha {
			alpha = best
		}
		if alpha >= beta {
			break
		}
	}
	e.ttStore(slot, depth, best, alpha0, beta, bestIdx)
	e.putMoves(moves, scratch)
	if !wantBest {
		return best, -1
	}
	return best, bestIdx
}

// ttSlot is a node's transposition-table handle between ttProbe and
// ttStore: the position's hash, whether it has one (the table is set and
// the position implements Hasher), and the stored best move (-1 if none).
type ttSlot struct {
	hash   uint64
	hashed bool
	best   int
}

// order maps loop index j to a move index: the stored best move first,
// then the rest in their generated order.
func (s ttSlot) order(j int) int {
	switch {
	case s.best < 0 || j > s.best:
		return j
	case j == 0:
		return s.best
	default:
		return j - 1
	}
}

// ttProbe consults the transposition table at an interior node with n
// successors. A sufficient-depth entry narrows the window to (a, b), or
// decides the node outright: cut is then true and v is the value to
// return. The slot carries what ttStore needs afterwards.
func (e *searcher) ttProbe(pos Position, depth, n int, alpha, beta int64) (slot ttSlot, a, b, v int64, cut bool) {
	slot.best = -1
	if e.table == nil {
		return slot, alpha, beta, 0, false
	}
	h, ok := pos.(Hasher)
	if !ok {
		return slot, alpha, beta, 0, false
	}
	slot.hash, slot.hashed = h.Hash(), true
	if e.tm != nil {
		e.tm.TTProbes.Add(1)
		e.tm.Hist[telemetry.HistTTProbeDepth].Observe(int64(depth))
	}
	tv, d, flag, tb, hit := e.table.ProbeAt(slot.hash, depth)
	if !hit {
		return slot, alpha, beta, 0, false
	}
	if e.tm != nil {
		e.tm.TTHits.Add(1)
	}
	if tb >= 0 && tb < n {
		slot.best = tb
	}
	if d < depth {
		return slot, alpha, beta, 0, false
	}
	switch flag {
	case BoundExact:
		return slot, alpha, beta, int64(tv), true
	case BoundLower:
		alpha = max(alpha, int64(tv))
	case BoundUpper:
		beta = min(beta, int64(tv))
	}
	return slot, alpha, beta, int64(tv), alpha >= beta
}

// ttStore records a searched node's result: an upper bound if it failed
// low against alpha0 (the window after ttProbe), a lower bound if it
// failed high against beta, exact otherwise. Interrupted searches store
// nothing — their values are partial.
func (e *searcher) ttStore(slot ttSlot, depth int, best, alpha0, beta int64, bestIdx int) {
	if !slot.hashed || e.interrupted() {
		return
	}
	flag := BoundExact
	switch {
	case best <= alpha0:
		flag = BoundUpper
	case best >= beta:
		flag = BoundLower
	}
	evicted := e.table.StoreShared(slot.hash, int32(best), depth, flag, bestIdx)
	if e.tm != nil {
		e.tm.TTStores.Add(1)
		if evicted {
			e.tm.TTEvictions.Add(1)
		}
	}
}

// Play returns the index of the best move at the root, or an error if the
// position is terminal. The root move list is generated once, inside the
// search — not pre-checked and recomputed.
func Play(ctx context.Context, pos Position, depth, workers int) (int, error) {
	r, err := SearchParallel(ctx, pos, depth, SearchOptions{Workers: workers})
	if err != nil {
		return -1, err
	}
	if r.Best < 0 {
		return -1, fmt.Errorf("engine: no legal moves")
	}
	return r.Best, nil
}

// WinScore is the magnitude used by game implementations for a decided
// game; heuristic scores must stay strictly below it.
func WinScore() int32 { return winScore }
