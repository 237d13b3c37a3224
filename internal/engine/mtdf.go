package engine

import "context"

// MTDF implements Plaat's MTD(f): a sequence of zero-window alpha-beta
// calls that binary-searches the minimax value, each call re-using the
// shared transposition table. MTD(f) is the memory-enhanced reformulation
// of Stockman's SSS* (Plaat et al. 1996), so together with
// alphabeta.SSS the repository has both faces of the best-first/
// depth-first equivalence. first is the initial guess (0 is fine; a
// previous iteration's value converges faster). Cancellation follows
// SearchTT: ctx is polled every checkMask nodes, and a cancelled search
// returns ErrCancelled with a zero Result.
func MTDF(ctx context.Context, pos Position, depth int, first int32, opt SearchOptions) (Result, error) {
	table := opt.Table
	if table == nil {
		table = NewTable(1 << 16)
	}
	table.Advance()
	g := int64(first)
	lower, upper := -scoreInf, scoreInf
	var total int64
	best := -1
	for lower < upper {
		beta := g
		if g == lower {
			beta = g + 1
		}
		e := &searcher{ctx: ctx, table: table}
		v, b := e.negamax(pos, depth, beta-1, beta, true)
		if ctx.Err() != nil {
			return Result{}, ErrCancelled
		}
		total += e.nodes
		g = v
		if b >= 0 {
			best = b
		}
		if g < beta {
			upper = g
		} else {
			lower = g
		}
	}
	return Result{Value: int32(g), Best: best, Nodes: total}, nil
}
