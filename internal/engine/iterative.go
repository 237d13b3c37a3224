package engine

import "context"

// SearchTT is Search with a transposition table: results of previous
// (possibly shallower) searches seed move ordering and produce immediate
// cutoffs at sufficient depth. The search polls ctx every checkMask nodes
// and returns ErrCancelled once it is done; the partial Result is
// discarded (zero value), matching SearchPVS and the pooled searches.
func SearchTT(ctx context.Context, pos Position, depth int, opt SearchOptions) (Result, error) {
	opt.Table.Advance()
	e := &searcher{ctx: ctx, table: opt.Table, tm: opt.Telemetry.Shard(0)}
	v, best := e.negamax(pos, depth, -scoreInf, scoreInf, true)
	if e.tm != nil {
		e.tm.Nodes.Add(e.nodes)
	}
	if ctx.Err() != nil {
		return Result{}, ErrCancelled
	}
	return Result{Value: int32(v), Best: best, Nodes: e.nodes}, nil
}

// SearchIterative performs iterative deepening to maxDepth with a
// transposition table, returning the final-depth result plus the
// principal variation (the sequence of best-move indices from the root).
// The table accelerates each deeper iteration via move ordering; the
// returned value equals a direct Search to maxDepth.
func SearchIterative(ctx context.Context, pos Position, maxDepth int, opt SearchOptions) (Result, []int, error) {
	if opt.Table == nil {
		opt.Table = NewTable(1 << 16)
	}
	var last Result
	for d := 1; d <= maxDepth; d++ {
		select {
		case <-ctx.Done():
			return last, nil, ErrCancelled
		default:
		}
		opt.Table.Advance()
		e := &searcher{ctx: ctx, table: opt.Table}
		v, best := e.negamax(pos, d, -scoreInf, scoreInf, true)
		if ctx.Err() != nil {
			return last, nil, ErrCancelled
		}
		last = Result{Value: int32(v), Best: best, Nodes: last.Nodes + e.nodes}
	}
	return last, extractPV(pos, maxDepth, opt.Table, last.Best), nil
}

// extractPV walks the transposition table from the root, following stored
// best moves, to reconstruct the principal variation. The walk stops at
// the depth horizon, at terminal positions, or at a table miss.
func extractPV(pos Position, depth int, table *Table, rootBest int) []int {
	var pv []int
	cur := pos
	for d := 0; d < depth; d++ {
		moves := cur.Moves()
		if len(moves) == 0 {
			break
		}
		best := -1
		if d == 0 {
			best = rootBest
		} else if h, ok := cur.(Hasher); ok {
			if _, _, _, b, hit := table.Probe(h.Hash()); hit {
				best = b
			}
		}
		if best < 0 || best >= len(moves) {
			break
		}
		pv = append(pv, best)
		cur = moves[best]
	}
	return pv
}
