package engine

import "context"

// This file implements Principal Variation Search (NegaScout), the modern
// engineering form of Pearl's SCOUT (the paper's reference [7]): the first
// successor is searched with the full window; each later successor is
// first *tested* with a null window, and re-searched with the full window
// only if the test fails high. With good move ordering almost every test
// succeeds and the search visits close to the Knuth-Moore optimal set.

// SearchPVS evaluates pos to the given depth with principal variation
// search. It returns the same value as Search. An optional transposition
// table (opt.Table) accelerates both tests and re-searches; its traffic,
// and the node count, land on shard 0 of opt.Telemetry. Cancelling ctx
// unwinds the search within checkMask nodes and returns ErrCancelled;
// the table keeps only entries stored before the interrupt.
func SearchPVS(ctx context.Context, pos Position, depth int, opt SearchOptions) (Result, error) {
	opt.Table.Advance()
	e := &searcher{ctx: ctx, table: opt.Table, tm: opt.Telemetry.Shard(0)}
	v, best := e.pvs(pos, depth, -scoreInf, scoreInf)
	if e.tm != nil {
		e.tm.Nodes.Add(e.nodes)
	}
	if ctx.Err() != nil {
		return Result{}, ErrCancelled
	}
	return Result{Value: int32(v), Best: best, Nodes: e.nodes}, nil
}

func (e *searcher) pvs(pos Position, depth int, alpha, beta int64) (int64, int) {
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
		var v int64
		if j == 0 {
			v2, _ := e.pvs(moves[i], depth-1, -beta, -alpha)
			v = -v2
		} else {
			// Null-window test: is this move better than alpha?
			v2, _ := e.pvs(moves[i], depth-1, -alpha-1, -alpha)
			v = -v2
			if v > alpha && v < beta {
				// Fail high inside an open window: re-search exactly.
				v3, _ := e.pvs(moves[i], depth-1, -beta, -v)
				v = -v3
			}
		}
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
	return best, bestIdx
}
