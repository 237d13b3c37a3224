package main

// The traced run. It first replays a slice of the workload's own
// operations untraced and then traced (trace.overhead, and the
// generator's validity numbers), then replays fixed samples down every
// layer ladder with spans on:
//
//	c4:    games walk → fastest sequential → pool w=1 without TT →
//	       pool w=1 with TT → pool w=nproc
//	pns:   sequential PN → PN² → SolveParallel w=1 → w=nproc
//	local: Pool.Search → in-memory ServeHTTP → loopback HTTP
//	ring:  Coordinator.Search → in-memory ServeHTTP → loopback HTTP
//
// Each layer's cost is the difference between adjacent rungs. Every
// rung builds fresh program state, so no rung inherits a warm table or
// cache from the one before. All ladders run on every workload's traced
// run, so every per-layer metric is always reported.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gametree/internal/engine"
	"gametree/internal/pns"
	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// Trace-id phases of the traced run.
const (
	phaseUntraced = iota + 1
	phaseTraced
	phaseC4
	phasePNS
	phaseLocal
	phaseRing
)

// Ladder sample sizes.
const (
	c4Sample    = 16
	walkDepth   = 4
	pnsSample   = 12
	serveSample = 160
	pn2Budget   = 64 // gtprove's PN² second-level budget
)

func passPhase(tr *traceSet) int {
	if tr == nil {
		return phaseUntraced
	}
	return phaseTraced
}

// overheadFn replays the workload's own operations untraced, then traced,
// and reports trace.overhead and the load generator's numbers.
type overheadFn func(cfg config, ts *traceSet, rep *report) error

func runTraced(cfg config, overhead overheadFn) (*report, error) {
	rep := &report{}
	ts := newTraceSet()
	if err := overhead(cfg, ts, rep); err != nil {
		return nil, err
	}
	c4Ladder(cfg, ts, rep)
	pnsLadder(cfg, ts, rep)
	pool, err := localLadder(cfg, ts, rep)
	if err != nil {
		return nil, err
	}
	if err := ringLadder(cfg, ts, rep, pool); err != nil {
		return nil, err
	}
	spans, _, dropped := ts.spans()
	for _, st := range selfTimes(spans) {
		rep.addInfo(fmt.Sprintf("self.p%d.%s", st.Proc, st.Stage), "ms", ms(st.Total)/float64(st.Count), fmt.Sprintf("mean self time over %d spans", st.Count))
	}
	rep.addInfo("trace.spans", "count", float64(len(spans)), fmt.Sprintf("%d overwritten", dropped))
	path := filepath.Join(cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := ts.write(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.printf("trace %s", path)
	return rep, nil
}

// overheadReport adds the traced run's validity metrics from an untraced
// and a traced replay of the same operations.
func overheadReport(rep *report, plain, traced window) {
	rep.count(plain)
	rep.count(traced)
	p0 := quantile(plain.latenciesMs(), 0.5)
	p1 := quantile(traced.latenciesMs(), 0.5)
	rep.addLayer("load.late_p99_ms", "ms", quantile(plain.lateMs(), 0.99), "how late the generator sent, untraced")
	rep.addLayer("load.in_flight", "count", float64(plain.inFlight), "cut off by the window, untraced")
	rep.addLayer("trace.overhead", "ratio", p1/p0, fmt.Sprintf("traced %.3f ms / untraced %.3f ms op_p50", p1, p0))
}

func closedOverhead(cfg config, ts *traceSet, rep *report, wl closedRunner, check func(*report, []int)) error {
	var ws [2]window
	for pass, tr := range []*traceSet{nil, ts} {
		st := newEngineState(cfg.nproc, wl.residentTable())
		ws[pass] = closedLoop(cfg.window(0.25), 0, wl.op(st, tr, passPhase(tr)))
		st.close()
		check(rep, windowIdxs(ws[pass]))
	}
	overheadReport(rep, ws[0], ws[1])
	return nil
}

func c4Overhead(cfg config, ts *traceSet, rep *report) error {
	wl := newC4(cfg.seed)
	return closedOverhead(cfg, ts, rep, wl, func(r *report, idxs []int) { wl.check(r, idxs, cfg.nproc) })
}

func pnsOverhead(cfg config, ts *traceSet, rep *report) error {
	wl := newPNS(cfg.seed)
	return closedOverhead(cfg, ts, rep, wl, wl.check)
}

func serveOverhead(withRing bool) overheadFn {
	return func(cfg config, ts *traceSet, rep *report) error {
		d := cfg.window(0.25)
		var ws [2]window
		for pass, tr := range []*traceSet{nil, ts} {
			sw := newServeWorkload(cfg.seed, int(nominalRate*d.Seconds())+1)
			s, err := startServe(cfg.nproc, withRing, tr)
			if err != nil {
				return err
			}
			if err := sw.warm(s); err != nil {
				s.close()
				return err
			}
			ws[pass] = openLoop(nominalRate, d, serveConns, 0, sw.op(s, tr, passPhase(tr)))
			s.close()
			sw.check(rep, cfg.nproc)
		}
		overheadReport(rep, ws[0], ws[1])
		return nil
	}
}

// timed runs f once per sample item, recording a benchmark span per call,
// and returns the mean wall time per call in ms.
func timed(ts *traceSet, phase int, stage string, n int, f func(i int)) float64 {
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		f(i)
		total += time.Since(t)
		ts.span(traceID(phase, i), stage, t)
	}
	return ms(total) / float64(n)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// perft walks the full tree below pos to depth d using only Position
// methods (move generation, Evaluate and Hash at every node) and returns
// the node count.
func perft(pos engine.Position, d int, bufs [][]engine.Position) int64 {
	if h, ok := pos.(engine.Hasher); ok {
		h.Hash()
	}
	var moves []engine.Position
	if ma, ok := pos.(engine.MoveAppender); ok {
		moves = ma.AppendMoves(bufs[d][:0])
		bufs[d] = moves
	} else {
		moves = pos.Moves()
	}
	if d == 0 || len(moves) == 0 {
		pos.Evaluate()
		return 1
	}
	n := int64(1)
	for _, c := range moves {
		n += perft(c, d-1, bufs)
	}
	return n
}

func c4Ladder(cfg config, ts *traceSet, rep *report) {
	sample := c4Openings(cfg.seed, c4Sample, c4Plies)
	ctx := context.Background()

	// Rung 0: the games layer alone.
	bufs := make([][]engine.Position, walkDepth+1)
	var nodes int64
	a0 := mallocs()
	walkMs := timed(ts, phaseC4, "bench:c4:games-walk", len(sample), func(i int) {
		nodes += perft(sample[i].pos, walkDepth, bufs)
	})
	allocs := mallocs() - a0
	nsPerNode := walkMs * 1e6 * float64(len(sample)) / float64(nodes)
	rep.addLayer("games.ns_per_node", "ns", nsPerNode, fmt.Sprintf("perft depth %d over %d positions, %d nodes", walkDepth, len(sample), nodes))
	rep.addLayer("games.allocs_per_node", "count", float64(allocs)/float64(nodes), "")

	want := make([]int32, len(sample))
	seqMs := timed(ts, phaseC4, "bench:c4:engine.Search", len(sample), func(i int) {
		want[i] = engine.Search(sample[i].pos, c4Depth).Value
	})
	type poolRung struct {
		name    string
		workers int
		table   bool
	}
	rungs := []poolRung{{"pool-w1", 1, false}, {"pool-w1-tt", 1, true}, {fmt.Sprintf("pool-w%d-tt", cfg.nproc), cfg.nproc, true}}
	var msPer [3]float64
	var snaps [3]telemetry.Snapshot
	var allocsPer float64
	for k, r := range rungs {
		var table *engine.Table
		if r.table {
			table = engine.NewTable(tableEntries)
		}
		rec := telemetry.NewRecorder()
		pool := engine.NewPool(r.workers, table, rec)
		a := mallocs()
		msPer[k] = timed(ts, phaseC4, "bench:c4:"+r.name, len(sample), func(i int) {
			res, err := pool.Search(ctx, sample[i].pos, c4Depth)
			if err != nil || res.Value != want[i] {
				rep.mismatch("c4 ladder %s: position %q: got %d (%v), sequential search says %d", r.name, sample[i].moves, res.Value, err, want[i])
			}
		})
		allocsPer = float64(mallocs()-a) / float64(len(sample))
		pool.Close()
		snaps[k] = rec.Snapshot()
	}
	rep.attempted += len(sample) * 5
	best, bestName := seqMs, "engine.Search"
	for k := 0; k < 2; k++ {
		if msPer[k] < best {
			best, bestName = msPer[k], rungs[k].name
		}
	}
	par := snaps[2].Total
	ops := float64(len(sample))
	parNodes := float64(par.Nodes) / ops
	rep.addLayer("games.share", "ratio", nsPerNode*parNodes/(msPer[2]*1e6), "games ns/node x pooled nodes/op / pooled op time")
	rep.addLayer("engine.seq_ms_per_op", "ms", best, "fastest sequential rung: "+bestName)
	rep.addInfo("engine.search_ms_per_op", "ms", seqMs, "engine.Search")
	for k, r := range rungs {
		rep.addInfo("engine."+strings.ReplaceAll(r.name, "-", "_")+"_ms_per_op", "ms", msPer[k], "")
	}
	rep.addLayer("engine.wall_speedup", "ratio", best/msPer[2], fmt.Sprintf("fastest sequential (%s) / pool w=%d with TT, wall clock", bestName, cfg.nproc))
	rep.addLayer("engine.search_overhead", "ratio", ratio(float64(par.Nodes), float64(snaps[1].Total.Nodes)), fmt.Sprintf("nodes at w=%d / w=1, both with TT", cfg.nproc))
	rep.addLayer("engine.nodes_per_op", "count", parNodes, "")
	rep.addLayer("engine.allocs_per_op", "count", allocsPer, "")
	rep.addLayer("engine.tasks_per_op", "count", float64(par.Tasks)/ops, "")
	rep.addLayer("engine.splits_per_op", "count", float64(par.Splits)/ops, "")
	rep.addLayer("engine.aborts_per_op", "count", float64(par.Aborts)/ops, "")
	rep.addLayer("engine.steal_ratio", "ratio", ratio(float64(par.Steals), float64(par.StealAttempts)), "steals / steal attempts")
	drain := snaps[2].Hist[telemetry.HistAbortDrainNs]
	drainUs := 0.0
	if drain.Count > 0 {
		drainUs = drain.P50() / 1e3
	}
	rep.addLayer("engine.abort_drain_p50_us", "us", drainUs, fmt.Sprintf("%d drains", drain.Count))
	rep.addLayer("tt.hit_ratio", "ratio", ratio(float64(par.TTHits), float64(par.TTProbes)), "c4 sample, pool w=nproc")
	rep.addLayer("tt.evictions_per_op", "count", float64(par.TTEvictions)/ops, "")
}

func pnsLadder(cfg config, ts *traceSet, rep *report) {
	sample := pnsInstances(cfg.seed, pnsSample)
	ctx := context.Background()
	check := func(rung string, i int, r pns.Result, err error) {
		if err == nil {
			err = pnsVerdictOK(sample[i], r.Verdict)
		}
		if err != nil {
			rep.mismatch("pns ladder %s: %v", rung, err)
		}
	}
	// Every solve is cold, as in pns-solve: it gets its own fresh table.
	seq := func(name string, budget int64) float64 {
		return timed(ts, phasePNS, "bench:pns:"+name, len(sample), func(i int) {
			table := engine.NewTable(pnsTableEntries)
			r, err := pns.New(sample[i].pos, pns.Options{Table: table, PN2Budget: budget}).Solve(ctx)
			check(name, i, r, err)
		})
	}
	pnMs := seq("pn", 0)
	pn2Ms := seq("pn2", pn2Budget)
	var parMs [2]float64
	var expands [2]int64
	var updates int64
	for k, w := range []int{1, cfg.nproc} {
		rec := telemetry.NewRecorder()
		pool := engine.NewPool(w, nil, rec)
		name := fmt.Sprintf("solve-parallel-w%d", w)
		parMs[k] = timed(ts, phasePNS, "bench:pns:"+name, len(sample), func(i int) {
			table := engine.NewTable(pnsTableEntries)
			r, err := pns.New(sample[i].pos, pns.Options{Table: table}).SolveParallel(ctx, pool)
			check(name, i, r, err)
			expands[k] += r.Expands
		})
		pool.Close()
		updates = rec.Snapshot().Total.PNUpdates
	}
	rep.attempted += len(sample) * 4
	ops := float64(len(sample))
	rep.addInfo("pns.pn_ms_per_op", "ms", pnMs, "sequential PN")
	rep.addInfo("pns.parallel_w1_ms_per_op", "ms", parMs[0], "")
	rep.addInfo("pns.parallel_ms_per_op", "ms", parMs[1], fmt.Sprintf("w=%d", cfg.nproc))
	rep.addLayer("pns.pn2_ms_per_op", "ms", pn2Ms, fmt.Sprintf("sequential PN², budget %d", pn2Budget))
	rep.addLayer("pns.speedup_vs_pn2", "ratio", pn2Ms/parMs[1], fmt.Sprintf("PN² wall / SolveParallel w=%d wall", cfg.nproc))
	rep.addLayer("pns.expands_per_op", "count", float64(expands[1])/ops, fmt.Sprintf("w=%d", cfg.nproc))
	rep.addLayer("pns.updates_per_op", "count", float64(updates)/ops, fmt.Sprintf("w=%d", cfg.nproc))
	rep.addLayer("pns.overhead", "ratio", ratio(float64(expands[1]), float64(expands[0])), fmt.Sprintf("expands at w=%d / w=1", cfg.nproc))
}

// serveSampleRoots returns the ladder's request sample and its distinct
// roots in order of first appearance (the requests that miss the cache).
func serveSampleRoots(seed int64) (reqs, roots []uint64) {
	reqs, _ = serveStream(seed, serveSample)
	seen := map[uint64]bool{}
	for _, r := range reqs {
		if !seen[r] {
			seen[r] = true
			roots = append(roots, r)
		}
	}
	return reqs, roots
}

// inMemory sends each request of the sample straight to the handler,
// without a socket, and returns per-request wall times in ms.
func inMemory(ts *traceSet, phase int, stage string, h http.Handler, reqs []uint64, want map[uint64]int32, rep *report) (hitMs, missMs []float64) {
	for i, root := range reqs {
		t := time.Now()
		req := httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(string(serveBody(root))))
		id := traceID(phase, i)
		req.Header.Set("X-GT-Trace", id)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		d := ms(time.Since(t))
		ts.span(id, stage, t)
		r, err := decodeReply(rw.Code, rw.Body.Bytes())
		if err != nil || r.Value != want[root] {
			rep.mismatch("%s: root %d: got %d (%v), sequential search says %d", stage, root, r.Value, err, want[root])
		}
		if r.Cached {
			hitMs = append(hitMs, d)
		} else {
			missMs = append(missMs, d)
		}
	}
	rep.attempted += len(reqs)
	return hitMs, missMs
}

// overHTTP sends the sample over loopback at the nominal rate through
// the workload's connections and returns the window plus the replies.
func overHTTP(ts *traceSet, phase int, s *serveStack, reqs []uint64, want map[uint64]int32, rep *report) (window, []searchReply) {
	sw := &serveWorkload{stream: reqs, values: make([]int32, len(reqs)), got: make([]bool, len(reqs))}
	d := time.Duration(float64(len(reqs)) / nominalRate * float64(time.Second))
	w := openLoop(nominalRate, d, serveConns, 0, sw.op(s, ts, phase))
	rep.count(w)
	for i, ok := range sw.got {
		if ok && sw.values[i] != want[reqs[i]] {
			rep.mismatch("serve http rung: root %d: got %d, sequential search says %d", reqs[i], sw.values[i], want[reqs[i]])
		}
	}
	return w, sw.replies
}

// serveStats reports the serve layer's own counters through add (a
// per-layer or an info metric).
func serveStats(add func(name, unit string, v float64, note string), prefix string, s *serveStack, replies []searchReply) {
	st := s.srv.Stats()
	req := float64(st["requests"])
	var queue []float64
	for _, r := range replies {
		if !r.Cached && !r.Coalesced {
			queue = append(queue, r.QueueMs)
		}
	}
	q := 0.0
	if len(queue) > 0 {
		q = median(queue)
	}
	add(prefix+"queue_p50_ms", "ms", q, fmt.Sprintf("leader wait for a pool, %d leaders", len(queue)))
	add(prefix+"cache_hit_ratio", "ratio", ratio(float64(st["cache_hits"]), req), "")
	add(prefix+"coalesce_ratio", "ratio", ratio(float64(st["coalesced"]), req), "")
	add(prefix+"shed_ratio", "ratio", ratio(float64(st["rejected_queue"]+st["rejected_draining"]), req), "")
}

// serveRungs prices the serve layer above a backend whose search costs
// backendMs per root: in-memory ServeHTTP, then loopback HTTP one request
// at a time, then loopback HTTP at the nominal rate through the
// workload's connections for the server's own counters. Each rung gets a
// fresh server, so every rung sees the same cache hits and misses.
func serveRungs(cfg config, ts *traceSet, phase int, withRing bool, reqs []uint64, want map[uint64]int32, backendMs float64, rep *report, add func(name, unit string, v float64, note string), prefix string) error {
	stage := "bench:local:"
	if withRing {
		stage = "bench:ring:"
	}
	s, err := startServe(cfg.nproc, withRing, ts)
	if err != nil {
		return err
	}
	hit, miss := inMemory(ts, phase+50, stage+"serve-inmem", s.srv.Handler(), reqs, want, rep)
	s.close()
	add(prefix+"hit_us", "us", mean(hit)*1e3, fmt.Sprintf("in-memory ServeHTTP, %d cache hits", len(hit)))
	add(prefix+"miss_overhead_us", "us", (mean(miss)-backendMs)*1e3, fmt.Sprintf("in-memory miss %.3f ms - backend search %.3f ms", mean(miss), backendMs))
	inmemMs := (mean(hit)*float64(len(hit)) + mean(miss)*float64(len(miss))) / float64(len(reqs))

	if s, err = startServe(cfg.nproc, withRing, ts); err != nil {
		return err
	}
	httpMs := timed(ts, phase+100, stage+"http", len(reqs), func(i int) {
		r, err := s.post(reqs[i], traceID(phase+100, i))
		if err != nil || r.Value != want[reqs[i]] {
			rep.mismatch("%shttp: root %d: got %d (%v), sequential search says %d", stage, reqs[i], r.Value, err, want[reqs[i]])
		}
	})
	s.close()
	rep.attempted += len(reqs)
	add(prefix+"http_us", "us", (httpMs-inmemMs)*1e3, "loopback HTTP - in-memory ServeHTTP, mean per request, one caller")

	if s, err = startServe(cfg.nproc, withRing, ts); err != nil {
		return err
	}
	w, replies := overHTTP(ts, phase+200, s, reqs, want, rep)
	serveStats(add, prefix, s, replies)
	s.close()
	add(prefix+"open_p50_ms", "ms", quantile(w.latenciesMs(), 0.5), fmt.Sprintf("loopback at %.0f req/s, from due time", nominalRate))
	return nil
}

// oracleFor computes the sequential value of every root.
func oracleFor(roots []uint64) map[uint64]int32 {
	want := make(map[uint64]int32, len(roots))
	for _, r := range roots {
		want[r] = engine.Search(randomRoot(r), serveDepth).Value
	}
	return want
}

// localLadder prices the local serve path; it returns the Pool.Search
// ms per root for the ring ladder's comparison.
func localLadder(cfg config, ts *traceSet, rep *report) (float64, error) {
	reqs, roots := serveSampleRoots(cfg.seed)
	want := oracleFor(roots)
	ctx := context.Background()
	poolRung := func(name string, workers int, withTable bool) float64 {
		var table *engine.Table
		if withTable {
			table = engine.NewTable(tableEntries)
		}
		pool := engine.NewPool(workers, table, nil)
		defer pool.Close()
		return timed(ts, phaseLocal, "bench:local:"+name, len(roots), func(i int) {
			res, err := pool.Search(ctx, randomRoot(roots[i]), serveDepth)
			if err != nil || res.Value != want[roots[i]] {
				rep.mismatch("local ladder %s: root %d: got %d (%v), sequential search says %d", name, roots[i], res.Value, err, want[roots[i]])
			}
		})
	}
	w1 := poolRung("pool-w1", 1, false)
	w1tt := poolRung("pool-w1-tt", 1, true)
	poolMs := poolRung("pool-search", cfg.nproc, true)
	rep.attempted += 3 * len(roots)
	rep.addLayer("tt.cost_share", "ratio", (w1tt-w1)/w1tt, fmt.Sprintf("(pool w=1 with TT - without) / with, %d random-tree roots", len(roots)))

	if err := serveRungs(cfg, ts, phaseLocal, false, reqs, want, poolMs, rep, rep.addLayer, "serve."); err != nil {
		return 0, err
	}
	return poolMs, nil
}

func ringLadder(cfg config, ts *traceSet, rep *report, poolMs float64) error {
	reqs, roots := serveSampleRoots(cfg.seed)
	want := oracleFor(roots)
	r, err := startRing(cfg.nproc, ts)
	if err != nil {
		return err
	}
	coordMs := timed(ts, phaseRing, "bench:ring:coordinator-search", len(roots), func(i int) {
		ctx := reqtrace.NewContext(context.Background(), traceID(phaseRing, i))
		res, err := r.coord.Search(ctx, "random", fmt.Sprint(roots[i]), serveDepth)
		if err != nil || res.Value != want[roots[i]] {
			rep.mismatch("ring ladder: root %d: got %d (%v), sequential search says %d", roots[i], res.Value, err, want[roots[i]])
		}
	})
	rep.attempted += len(roots)
	coord := r.coordRec.Snapshot().Total
	var remoteProbes, remoteHits int64
	for _, wr := range r.workerRec {
		t := wr.Snapshot().Total
		remoteProbes += t.RemoteProbes
		remoteHits += t.RemoteHits
	}
	fenced := r.coord.FencedResults()
	r.close()
	ops := float64(len(roots))
	rep.addLayer("shard.search_ms", "ms", coordMs, "Coordinator.Search called directly, per root")
	rep.addLayer("shard.search_ratio", "ratio", coordMs/poolMs, fmt.Sprintf("Coordinator.Search / Pool.Search (%.3f ms) on the same roots", poolMs))
	rep.addLayer("shard.tasks_per_op", "count", float64(coord.ShardTasks)/ops, "")
	rep.addLayer("shard.reissues_per_op", "count", float64(coord.ShardReissues)/ops, "")
	rep.addLayer("shard.remote_tt_hit_ratio", "ratio", ratio(float64(remoteHits), float64(remoteProbes)), fmt.Sprintf("%d remote probes", remoteProbes))
	rep.addLayer("shard.fenced", "count", float64(fenced), "stale-epoch results discarded")

	// Stage spans the coordinator and workers recorded for this rung.
	spans, _, _ := ts.spans()
	prefix := traceID(phaseRing, 0)[:8]
	stage := map[string][]float64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Trace, prefix) && s.Proc != procBench {
			key := s.Stage
			if s.Proc != procRing {
				key = "worker-" + s.Stage
			}
			stage[key] = append(stage[key], float64(s.DurNs)/1e6)
		}
	}
	rep.addLayer("shard.expand_us", "us", quantile(stage[reqtrace.StageExpand], 0.5)*1e3, "p50")
	rep.addLayer("shard.rpc_p50_ms", "ms", quantile(stage[reqtrace.StageRPC], 0.5), fmt.Sprintf("%d task rpcs", len(stage[reqtrace.StageRPC])))
	rep.addLayer("shard.fold_us", "us", quantile(stage[reqtrace.StageFold], 0.5)*1e3, "p50")
	rep.addLayer("shard.worker_queue_p50_ms", "ms", quantile(stage["worker-"+reqtrace.StageQueue], 0.5), "")
	compute := stage["worker-"+reqtrace.StageCompute]
	rep.addLayer("shard.worker_compute_p50_ms", "ms", quantile(compute, 0.5), fmt.Sprintf("%d tasks", len(compute)))
	rep.addLayer("shard.worker_compute_p90_ms", "ms", quantile(compute, 0.9), "the slowest task of a fan-out sets the request's time")

	return serveRungs(cfg, ts, phaseRing, true, reqs, want, coordMs, rep, rep.addInfo, "ring.")
}
