package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gametree/internal/reqtrace"
	"gametree/internal/telemetry"
)

// TestTelemetrySingleWorkerExact pins the counter semantics where they
// are deterministic: with one worker there is no one to steal from or be
// pre-empted by asynchronously, so the counters must be exact — zero
// steals, node parity with the sequential search, and the split/task
// accounting identity.
func TestTelemetrySingleWorkerExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		depth := 4 + rng.Intn(3)
		p := buildRandomPos(rng, depth, 4)
		seq := Search(p, depth)

		rec := telemetry.NewRecorder()
		r, err := SearchParallel(context.Background(), p, depth,
			SearchOptions{Workers: 1, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		c := rec.Snapshot().Total

		if c.Steals != 0 || c.StealAttempts != 0 {
			t.Fatalf("trial %d: single worker recorded %d steals / %d attempts",
				trial, c.Steals, c.StealAttempts)
		}
		if c.Nodes != r.Nodes || r.Nodes != seq.Nodes {
			t.Fatalf("trial %d: telemetry nodes %d, result %d, sequential %d",
				trial, c.Nodes, r.Nodes, seq.Nodes)
		}
		// Every split's sibling tasks complete exactly once: as a run
		// (Tasks), as a skip (Aborts), or as a run that was then
		// pre-empted (both). Hence Tasks <= total siblings <= Tasks+Aborts.
		// The per-split sibling counts aren't observable here, but each
		// split schedules at least one sibling, so Splits is a lower bound.
		if c.Tasks+c.Aborts < c.Splits {
			t.Fatalf("trial %d: %d tasks + %d aborts < %d splits",
				trial, c.Tasks, c.Aborts, c.Splits)
		}
		if depth > seqSplitDepth && c.Splits == 0 {
			t.Fatalf("trial %d: depth %d search opened no splits", trial, depth)
		}

		// Single-worker runs are deterministic: a second run must
		// reproduce every counter bit-for-bit. AbortDrainNs is the one
		// wall-clock field — nested YBWC cutoffs fire even at one worker,
		// and their drain latency is time, not structure — so it is
		// excluded from the comparison.
		rec2 := telemetry.NewRecorder()
		if _, err := SearchParallel(context.Background(), p, depth,
			SearchOptions{Workers: 1, Telemetry: rec2}); err != nil {
			t.Fatal(err)
		}
		c2 := rec2.Snapshot().Total
		cc, cc2 := c, c2
		cc.AbortDrainNs, cc2.AbortDrainNs = 0, 0
		if cc2 != cc {
			t.Fatalf("trial %d: single-worker counters not deterministic:\n%+v\n%+v", trial, c, c2)
		}
	}
}

// TestTelemetryPessimalTreeAccounting pins the recursive split count on
// the fixed pessimal benchmark tree at one worker, where scheduling is
// deterministic. Splits open only on a drained deque, so a node above the
// horizon splits after its eldest child returns; of its branch-1 queued
// siblings, only the last one popped finds the deque empty again and
// splits in turn, while the others run in place. With no cutoff
// pre-empting a split at this size, f(d) = 2f(d-1) + 1 and f(horizon) = 0
// give 2^(depth-horizon) - 1 splits, each scheduling branch-1 siblings,
// and the deque never holds more than one split's siblings.
// (TestYBWCNestedAccounting pins the spine/nested split of that count.)
func TestTelemetryPessimalTreeAccounting(t *testing.T) {
	const depth, branch = 6, 4
	tree := NewPessimalTree(depth, branch, 0)
	rec := telemetry.NewRecorder()
	if _, err := SearchParallel(context.Background(), (*BenchTreeAppender)(tree), depth,
		SearchOptions{Workers: 1, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Total
	wantSplits := int64(1)<<(depth-seqSplitDepth) - 1
	if c.Splits != wantSplits {
		t.Fatalf("splits %d, want %d (2^(depth-horizon) - 1)", c.Splits, wantSplits)
	}
	siblings := wantSplits * (branch - 1)
	if c.Tasks > siblings || c.Tasks+c.Aborts < siblings {
		t.Fatalf("task accounting: %d tasks, %d aborts, %d siblings scheduled",
			c.Tasks, c.Aborts, siblings)
	}
	if c.DequeMax != branch-1 {
		t.Fatalf("deque high-water %d, want %d (one split's siblings)", c.DequeMax, branch-1)
	}
}

// deepHashed is a tree position whose children also hash (the shared
// hashedPos fixture only hashes its root), so TT traffic happens at
// every interior node of the search.
type deepHashed struct {
	kids []Position
	val  int32
	id   uint64
}

func (h *deepHashed) Evaluate() int32   { return h.val }
func (h *deepHashed) Moves() []Position { return h.kids }
func (h *deepHashed) Hash() uint64      { return h.id }

func buildDeepHashed(rng *rand.Rand, depth, maxKids int, next *uint64) *deepHashed {
	h := &deepHashed{val: int32(rng.Intn(201) - 100), id: *next}
	*next++
	if depth == 0 {
		return h
	}
	for i := 0; i < maxKids; i++ {
		h.kids = append(h.kids, buildDeepHashed(rng, depth-1, maxKids, next))
	}
	return h
}

// TestTelemetryTTCounters: the table-backed search must report probe,
// hit, store and eviction traffic, and the counters must be consistent
// with each other (hits never exceed probes, evictions never exceed
// stores).
func TestTelemetryTTCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var next uint64
	pos := buildDeepHashed(rng, 7, 3, &next)
	rec := telemetry.NewRecorder()
	table := NewTable(1 << 4) // tiny, to force evictions
	if _, err := SearchParallel(context.Background(), pos, 7,
		SearchOptions{Table: table, Workers: 2, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	c := rec.Snapshot().Total
	if c.TTProbes == 0 || c.TTStores == 0 {
		t.Fatalf("no TT traffic recorded: %+v", c)
	}
	if c.TTHits > c.TTProbes {
		t.Fatalf("hits %d exceed probes %d", c.TTHits, c.TTProbes)
	}
	if c.TTEvictions > c.TTStores {
		t.Fatalf("evictions %d exceed stores %d", c.TTEvictions, c.TTStores)
	}
	if c.TTEvictions == 0 {
		t.Fatalf("tiny table saw no evictions (stores %d)", c.TTStores)
	}

	// The sequential table searches share the same counters.
	for name, search := range map[string]func(context.Context, Position, int, SearchOptions) (Result, error){
		"SearchTT": SearchTT, "SearchPVS": SearchPVS,
	} {
		rec2 := telemetry.NewRecorder()
		if _, err := search(context.Background(), pos, 5, SearchOptions{Table: NewTable(1 << 8), Telemetry: rec2}); err != nil {
			t.Fatal(err)
		}
		if c2 := rec2.Snapshot().Total; c2.TTProbes == 0 || c2.TTStores == 0 || c2.Nodes == 0 {
			t.Fatalf("%s recorded no TT traffic: %+v", name, c2)
		}
	}
}

// TestTelemetrySnapshotDuringSearch snapshots a live instrumented search
// from another goroutine. Under -race this is the satellite guarantee
// that mid-run Snapshot is safe; the monotonicity check catches torn or
// regressing reads.
func TestTelemetrySnapshotDuringSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := buildRandomPos(rng, 8, 3)
	rec := telemetry.NewRecorder()
	var done atomic.Bool
	snaps := make(chan telemetry.Snapshot, 1)
	go func() {
		var lastTasks, lastNodes int64
		var last telemetry.Snapshot
		for !done.Load() {
			s := rec.Snapshot()
			if s.Total.Tasks < lastTasks || s.Total.Nodes < lastNodes {
				t.Errorf("counters regressed: tasks %d->%d nodes %d->%d",
					lastTasks, s.Total.Tasks, lastNodes, s.Total.Nodes)
				break
			}
			lastTasks, lastNodes = s.Total.Tasks, s.Total.Nodes
			last = s
			runtime.Gosched()
		}
		snaps <- last
	}()
	r, err := SearchParallel(context.Background(), p, 8,
		SearchOptions{Workers: 4, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	done.Store(true)
	<-snaps
	final := rec.Snapshot().Total
	if final.Nodes != r.Nodes {
		t.Fatalf("quiesced telemetry nodes %d != result nodes %d", final.Nodes, r.Nodes)
	}
	if got := len(rec.Snapshot().PerWorker); got != 4 {
		t.Fatalf("shard count %d, want 4", got)
	}
}

// tracedSearch runs one pooled search on the pessimal tree at w=4 with
// a tracer attached to the recorder and a trace ID in ctx, and returns
// the recorded spans (asserting none were overwritten) with the
// quiesced counters.
func tracedSearch(t *testing.T, depth int, trace string) ([]reqtrace.Span, telemetry.Counts) {
	t.Helper()
	tree := NewPessimalTree(depth, 4, 0)
	rec := telemetry.NewRecorder()
	tr := reqtrace.New(0, "engine", 0, 1<<18)
	rec.SetTracer(tr)
	ctx := reqtrace.NewContext(context.Background(), trace)
	if _, err := SearchParallel(ctx, (*BenchTreeAppender)(tree), depth,
		SearchOptions{Workers: 4, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	spans, dropped := tr.Spans()
	if dropped != 0 {
		t.Fatalf("%d spans overwritten below the ring bound", dropped)
	}
	for i, s := range spans {
		if s.Trace != trace {
			t.Fatalf("span %d carries trace %q, want %q: %+v", i, s.Trace, trace, s)
		}
		if s.Worker < 0 || s.Worker >= 4 || s.DurNs < 0 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	return spans, rec.Snapshot().Total
}

// TestTelemetryTracingSpans: with a tracer attached, every joined split
// leaves one split span and one join span under the search's trace ID,
// the join nested inside its split on the same worker row.
func TestTelemetryTracingSpans(t *testing.T) {
	spans, c := tracedSearch(t, 6, "tr-spans")
	stages := map[string]int64{}
	perWorker := map[int][]reqtrace.Span{}
	for _, s := range spans {
		stages[s.Stage]++
		if s.Stage == reqtrace.StageSplit || s.Stage == reqtrace.StageJoin {
			perWorker[s.Worker] = append(perWorker[s.Worker], s)
		}
	}
	if stages[reqtrace.StageSplit] != c.Splits || stages[reqtrace.StageJoin] != c.Splits {
		t.Fatalf("%d split and %d join spans for %d splits",
			stages[reqtrace.StageSplit], stages[reqtrace.StageJoin], c.Splits)
	}
	if c.Splits == 0 {
		t.Fatal("pessimal tree opened no splits")
	}
	// A worker records a split and then its join back to back, so on
	// each worker row the spans alternate split, join.
	for w, ws := range perWorker {
		for i := 0; i+1 < len(ws); i += 2 {
			sp, jn := ws[i], ws[i+1]
			if sp.Stage != reqtrace.StageSplit || jn.Stage != reqtrace.StageJoin {
				t.Fatalf("worker %d: span %d/%d are %s/%s, want split/join", w, i, i+1, sp.Stage, jn.Stage)
			}
			if jn.StartNs < sp.StartNs || jn.StartNs+jn.DurNs != sp.StartNs+sp.DurNs {
				t.Fatalf("worker %d: join %+v not inside split %+v", w, jn, sp)
			}
			if !strings.HasPrefix(sp.Note, "tasks=") || sp.Note == "tasks=0" {
				t.Fatalf("worker %d: split note %q", w, sp.Note)
			}
		}
	}
}

// TestTelemetryNilRecorderSearch: the uninstrumented path must stay
// identical in value and node count to the instrumented one.
func TestTelemetryNilRecorderSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := buildRandomPos(rng, 6, 4)
	plain, err := SearchParallel(context.Background(), p, 6, SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	inst, err := SearchParallel(context.Background(), p, 6,
		SearchOptions{Workers: 2, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Value != inst.Value {
		t.Fatalf("instrumentation changed the value: %d vs %d", plain.Value, inst.Value)
	}
}

// TestTelemetryHistograms: an instrumented pooled search must populate
// the per-family histograms consistently with its counters — every
// executed task has a run-time sample, every abort drain a latency
// sample, every split a deque-depth sample, every TT probe a depth
// sample — and the quantiles must be ordered.
func TestTelemetryHistograms(t *testing.T) {
	tree := NewPessimalTree(8, 4, 0)
	rec := telemetry.NewRecorder()
	if _, err := SearchParallel(context.Background(), (*BenchTreeAppender)(tree), 8,
		SearchOptions{Workers: 4, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	c := s.Total

	if run := s.Hist[telemetry.HistTaskRunNs]; run.Count != c.Tasks {
		t.Fatalf("task run samples %d != tasks %d", run.Count, c.Tasks)
	}
	if drain := s.Hist[telemetry.HistAbortDrainNs]; drain.Count != c.AbortDrains {
		t.Fatalf("drain samples %d != abort drains %d", drain.Count, c.AbortDrains)
	}
	if dq := s.Hist[telemetry.HistDequeDepth]; dq.Count != c.Splits {
		t.Fatalf("deque samples %d != splits %d", dq.Count, c.Splits)
	} else if dq.Max != c.DequeMax {
		t.Fatalf("deque histogram max %d != high-water counter %d", dq.Max, c.DequeMax)
	}
	if sr := s.Hist[telemetry.HistStealRetries]; sr.Count != c.StealAttempts {
		t.Fatalf("steal-retry samples %d != steal attempts %d", sr.Count, c.StealAttempts)
	}

	rep := s.Report()
	if c.AbortDrains > 0 {
		if !(rep.AbortDrainP50Us > 0 && rep.AbortDrainP50Us <= rep.AbortDrainP95Us &&
			rep.AbortDrainP95Us <= rep.AbortDrainP99Us && rep.AbortDrainP99Us <= rep.AbortDrainMaxUs) {
			t.Fatalf("drain quantiles disordered: %+v", rep)
		}
	}
	if c.Tasks > 0 && !(rep.TaskRunP50Us > 0 && rep.TaskRunP50Us <= rep.TaskRunP99Us) {
		t.Fatalf("task run quantiles disordered: p50=%v p99=%v", rep.TaskRunP50Us, rep.TaskRunP99Us)
	}

	// TT probe depth: table-backed search on the hashed fixture.
	rng := rand.New(rand.NewSource(35))
	var next uint64
	pos := buildDeepHashed(rng, 6, 3, &next)
	ttRec := telemetry.NewRecorder()
	if _, err := SearchParallel(context.Background(), pos, 6,
		SearchOptions{Table: NewTable(1 << 10), Workers: 2, Telemetry: ttRec}); err != nil {
		t.Fatal(err)
	}
	ts := ttRec.Snapshot()
	if pd := ts.Hist[telemetry.HistTTProbeDepth]; pd.Count != ts.Total.TTProbes {
		t.Fatalf("probe-depth samples %d != probes %d", pd.Count, ts.Total.TTProbes)
	} else if pd.Max > 6 || pd.Max < 1 {
		t.Fatalf("probe depth max %d outside the search depth range", pd.Max)
	}
}

// TestTelemetryEventLog: the scheduler's decisions are spans of the
// same trace — one zero-duration steal span per steal and abort span per
// abort — and the whole record renders through the one Chrome writer,
// with steals and aborts as instants on the engine worker rows.
func TestTelemetryEventLog(t *testing.T) {
	spans, c := tracedSearch(t, 7, "tr-sched")
	stages := map[string]int64{}
	for i, s := range spans {
		stages[s.Stage]++
		if (s.Stage == reqtrace.StageSteal || s.Stage == reqtrace.StageAbort) && s.DurNs != 0 {
			t.Fatalf("span %d: %s with duration %d", i, s.Stage, s.DurNs)
		}
	}
	if stages[reqtrace.StageSplit] != c.Splits || stages[reqtrace.StageJoin] != c.Splits {
		t.Fatalf("%d split and %d join spans for %d splits",
			stages[reqtrace.StageSplit], stages[reqtrace.StageJoin], c.Splits)
	}
	if stages[reqtrace.StageSteal] != c.Steals {
		t.Fatalf("%d steal spans for %d steals", stages[reqtrace.StageSteal], c.Steals)
	}
	if stages[reqtrace.StageAbort] != c.Aborts {
		t.Fatalf("%d abort spans for %d aborts", stages[reqtrace.StageAbort], c.Aborts)
	}

	merged, base := reqtrace.Merge([]reqtrace.Dump{{Spans: spans}})
	var trace strings.Builder
	if err := reqtrace.WriteChromeTrace(&trace, merged, base, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	phases := map[string]int64{}
	for _, e := range doc.TraceEvents {
		phases[e.Name+"/"+e.Ph]++
	}
	if phases["steal/i"] != c.Steals || phases["abort/i"] != c.Aborts {
		t.Fatalf("trace has %d steal and %d abort instants for %d steals and %d aborts",
			phases["steal/i"], phases["abort/i"], c.Steals, c.Aborts)
	}
	if phases["split/X"] != c.Splits {
		t.Fatalf("trace has %d split events for %d splits", phases["split/X"], c.Splits)
	}
}

// TestTelemetryUntracedSearchAllocs extends the unsampled-path contract
// of reqtrace to the engine: a resident pool whose recorder has a tracer
// attached, searching under a ctx with no trace ID, allocates exactly as
// much as one whose recorder has no tracer, and records no span.
func TestTelemetryUntracedSearchAllocs(t *testing.T) {
	tree := NewPessimalTree(6, 4, 0)
	pos := (*BenchTreeAppender)(tree)
	ctx := context.Background()
	allocs := func(rec *telemetry.Recorder) float64 {
		p := NewPool(1, nil, rec)
		defer p.Close()
		return testing.AllocsPerRun(20, func() {
			if _, err := p.Search(ctx, pos, 6); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(telemetry.NewRecorder())
	rec := telemetry.NewRecorder()
	tr := reqtrace.New(0, "engine", 0, 64)
	rec.SetTracer(tr)
	traced := allocs(rec)
	if traced != plain {
		t.Errorf("untraced search with a tracer attached: %.1f allocs, %.1f without a tracer", traced, plain)
	}
	if spans, _ := tr.Spans(); len(spans) != 0 {
		t.Errorf("untraced search recorded %d spans", len(spans))
	}
	t.Logf("allocs per search: %.1f", plain)
}

// TestTelemetryPoolTraceSwitch: a resident pool reads the trace ID per
// search, so its helpers must see each search's ID, never a previous
// one, and an untraced search in between records nothing. Run under
// -race, this also orders the per-search span sink against the helpers.
func TestTelemetryPoolTraceSwitch(t *testing.T) {
	tree := NewPessimalTree(6, 4, 0)
	pos := (*BenchTreeAppender)(tree)
	rec := telemetry.NewRecorder()
	tr := reqtrace.New(0, "engine", 0, 1<<18)
	rec.SetTracer(tr)
	p := NewPool(4, nil, rec)
	defer p.Close()
	for i := 0; i < 6; i++ {
		before, _ := tr.Spans()
		id := ""
		if i%2 == 0 {
			id = fmt.Sprintf("tr-%d", i)
		}
		if _, err := p.Search(reqtrace.NewContext(context.Background(), id), pos, 6); err != nil {
			t.Fatal(err)
		}
		after, dropped := tr.Spans()
		if dropped != 0 {
			t.Fatalf("%d spans overwritten", dropped)
		}
		added := after[len(before):]
		if id == "" && len(added) != 0 {
			t.Fatalf("untraced search %d recorded %d spans", i, len(added))
		}
		if id != "" && len(added) == 0 {
			t.Fatalf("traced search %d recorded no spans", i)
		}
		for _, s := range added {
			if s.Trace != id {
				t.Fatalf("search %d: span under %q, want %q", i, s.Trace, id)
			}
		}
	}
}
