package reqtrace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSampleNext(t *testing.T) {
	var nilT *Tracer
	if nilT.SampleNext() {
		t.Error("nil tracer sampled")
	}
	if New(0, "x", 0, 0).SampleNext() {
		t.Error("sampleN=0 sampled")
	}
	every := New(0, "x", 1, 0)
	for i := 0; i < 5; i++ {
		if !every.SampleNext() {
			t.Fatal("sampleN=1 skipped a request")
		}
	}
	oneIn4 := New(0, "x", 4, 0)
	picked := 0
	for i := 0; i < 400; i++ {
		if oneIn4.SampleNext() {
			picked++
		}
	}
	if picked != 100 {
		t.Errorf("1-in-4 sampling picked %d of 400", picked)
	}
}

// TestUnsampledZeroAlloc is the satellite contract: a request that was
// not sampled (empty trace ID) must cross every recording site without
// allocating — the hot path keeps PR 2's one-branch-when-off cost.
func TestUnsampledZeroAlloc(t *testing.T) {
	tr := New(0, "coordinator", 2, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(Span{Trace: "", Stage: StageCompute, StartNs: 1, DurNs: 2})
	})
	if allocs != 0 {
		t.Errorf("unsampled Record allocated %.1f per call, want 0", allocs)
	}
	var nilT *Tracer
	allocs = testing.AllocsPerRun(1000, func() {
		nilT.Record(Span{Trace: "abc", Stage: StageCompute, StartNs: 1, DurNs: 2})
	})
	if allocs != 0 {
		t.Errorf("nil-tracer Record allocated %.1f per call, want 0", allocs)
	}
}

func TestRingBufferOverwritesOldest(t *testing.T) {
	tr := New(1, "worker", 1, 4)
	for i := 0; i < 7; i++ {
		tr.Record(Span{Trace: "t", Stage: StageCompute, StartNs: int64(i)})
	}
	spans, dropped := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(spans))
	}
	if dropped != 3 {
		t.Errorf("dropped=%d, want 3", dropped)
	}
	for i, s := range spans {
		if want := int64(i + 3); s.StartNs != want {
			t.Errorf("span %d: start %d, want %d (oldest-first after wrap)", i, s.StartNs, want)
		}
		if s.Proc != 1 {
			t.Errorf("span %d: proc %d, want tracer's proc 1", i, s.Proc)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != "" {
		t.Errorf("empty context carried trace %q", got)
	}
	if NewContext(ctx, "") != ctx {
		t.Error("empty trace should not wrap the context")
	}
	ctx2 := NewContext(ctx, "deadbeef")
	if got := FromContext(ctx2); got != "deadbeef" {
		t.Errorf("round trip: %q", got)
	}
}

func TestMintIDDistinct(t *testing.T) {
	a, b := MintID(), MintID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("ids %q %q: want 16 hex chars", a, b)
	}
	if a == b {
		t.Error("two minted ids collided")
	}
}

func TestHandlerDump(t *testing.T) {
	tr := New(0, "coordinator", 1, 0)
	tr.Record(Span{Trace: "abc", Stage: StageExpand, StartNs: 100, DurNs: 50})
	tr.SetOffsets(func() map[int]Offset {
		return map[int]Offset{1: {OffsetNs: -250, RTTNs: 900}}
	})
	rec := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/gttrace", nil))
	var d Dump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Proc != 0 || d.Role != "coordinator" || len(d.Spans) != 1 {
		t.Fatalf("dump %+v", d)
	}
	if d.Spans[0].Stage != StageExpand {
		t.Errorf("stage %q", d.Spans[0].Stage)
	}
	if o := d.Offsets["1"]; o.OffsetNs != -250 || o.RTTNs != 900 {
		t.Errorf("offsets %+v", d.Offsets)
	}
	if d.NowNs == 0 {
		t.Error("dump missing scrape clock")
	}

	// Nil tracer: the endpoint must still answer with an empty dump.
	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/gttrace", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Spans) != 0 {
		t.Errorf("nil tracer dumped %d spans", len(d.Spans))
	}
}

func TestPromSection(t *testing.T) {
	tr := New(0, "coordinator", 1, 0)
	tr.Record(Span{Trace: "abc", Stage: StageRPC, StartNs: 1, DurNs: 1000})
	tr.Record(Span{Trace: "abc", Stage: StageRPC, StartNs: 2, DurNs: 3000})
	tr.Record(Span{Trace: "abc", Stage: StageFold, StartNs: 3, DurNs: 10})
	var sb strings.Builder
	if err := tr.PromSection()(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE gametree_shard_stage_ns histogram",
		`gametree_shard_stage_ns_count{stage="rpc"} 2`,
		`gametree_shard_stage_ns_sum{stage="rpc"} 4000`,
		`gametree_shard_stage_ns_count{stage="fold"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Unpopulated stages are omitted.
	if strings.Contains(out, `stage="compute"`) {
		t.Error("exposition contains a stage with no observations")
	}
}

func TestMergeAlignsClocks(t *testing.T) {
	// Worker 1's clock runs 5ms ahead of the coordinator's; the
	// coordinator's offset table knows it. Worker 2 has no estimate but
	// its scrape NowNs is 2ms ahead, which the fallback should use.
	coord := Dump{
		Proc: 0, Role: "coordinator", NowNs: 1_000_000_000,
		Offsets: map[string]Offset{"1": {OffsetNs: 5_000_000, RTTNs: 100_000}},
		Spans: []Span{
			{Trace: "t1", Proc: 0, Stage: StageRequest, StartNs: 1_000_000_000, DurNs: 30_000_000},
		},
	}
	w1 := Dump{Proc: 1, Role: "worker", NowNs: 1_005_000_000, Spans: []Span{
		{Trace: "t1", Proc: 1, Stage: StageCompute, StartNs: 1_010_000_000, DurNs: 10_000_000},
	}}
	w2 := Dump{Proc: 2, Role: "worker", NowNs: 1_002_000_000, Spans: []Span{
		{Trace: "t1", Proc: 2, Stage: StageCompute, StartNs: 1_012_000_000, DurNs: 10_000_000},
	}}
	spans, base := Merge([]Dump{coord, w1, w2})
	if len(spans) != 3 {
		t.Fatalf("merged %d spans", len(spans))
	}
	if base != 1_000_000_000 {
		t.Errorf("base %d", base)
	}
	for _, s := range spans {
		switch s.Proc {
		case 1:
			if s.StartNs != 1_005_000_000 {
				t.Errorf("worker 1 span not shifted by the echo offset: %d", s.StartNs)
			}
		case 2:
			if s.StartNs != 1_010_000_000 {
				t.Errorf("worker 2 span not shifted by the NowNs fallback: %d", s.StartNs)
			}
		}
	}
	// Sorted by aligned start: coordinator request first.
	if spans[0].Proc != 0 || spans[0].Stage != StageRequest {
		t.Errorf("first span %+v", spans[0])
	}
}

func TestWriteChromeTraceLanes(t *testing.T) {
	spans := []Span{
		{Trace: "t1", Proc: 0, Stage: StageRequest, StartNs: 100, DurNs: 50},
		{Trace: "t1", Proc: 1, Stage: StageCompute, StartNs: 110, DurNs: 20, Task: 7, Note: "ok"},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, spans, 100, map[int]string{0: "coordinator"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, out)
	}
	// 2 process_name metadata + 2 spans.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	for _, want := range []string{
		`"coordinator (proc 0)"`, `"worker (proc 1)"`,
		`"name":"request"`, `"name":"compute"`, `"trace":"t1"`, `"task":7,`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestBreakdown(t *testing.T) {
	spans := []Span{
		{Trace: "t1", Proc: 0, Stage: StageRequest, StartNs: 100, DurNs: 1_000_000},
		{Trace: "t1", Proc: 0, Stage: StageExpand, StartNs: 110, DurNs: 100_000},
		{Trace: "t1", Proc: 0, Stage: StageRPC, StartNs: 120, DurNs: 400_000, Task: 1, Worker: 1},
		{Trace: "t1", Proc: 0, Stage: StageRPC, StartNs: 120, DurNs: 500_000, Task: 2, Worker: 2},
		{Trace: "t1", Proc: 1, Stage: StageCompute, StartNs: 130, DurNs: 300_000, Task: 1},
		{Trace: "t1", Proc: 2, Stage: StageCompute, StartNs: 130, DurNs: 350_000, Task: 2},
		{Trace: "t2", Proc: 0, Stage: StageRequest, StartNs: 500, DurNs: 2_000_000},
	}
	bds := Breakdown(spans)
	if len(bds) != 2 {
		t.Fatalf("%d breakdowns", len(bds))
	}
	b := bds[0]
	if b.Trace != "t1" || b.TotalNs != 1_000_000 {
		t.Fatalf("first breakdown %+v", b)
	}
	if want := []int{0, 1, 2}; len(b.Procs) != 3 || b.Procs[0] != want[0] || b.Procs[2] != want[2] {
		t.Errorf("procs %v", b.Procs)
	}
	var rpc, compute *StageTotal
	for i := range b.Stages {
		switch b.Stages[i].Stage {
		case StageRPC:
			rpc = &b.Stages[i]
		case StageCompute:
			compute = &b.Stages[i]
		}
	}
	if rpc == nil || rpc.Count != 2 || rpc.SumNs != 900_000 {
		t.Errorf("rpc stage %+v", rpc)
	}
	if compute == nil || compute.Count != 2 || len(compute.Procs) != 2 {
		t.Errorf("compute stage %+v", compute)
	}

	var sb strings.Builder
	if err := WriteBreakdown(&sb, bds); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"trace t1", "rpc", "compute", "total=1.000ms", "trace t2"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestSpanWallClock pins the recording convention: StartNs is wall-clock
// UnixNano, so two processes on one machine produce directly comparable
// spans even before offset correction.
func TestSpanWallClock(t *testing.T) {
	tr := New(0, "x", 1, 0)
	before := time.Now().UnixNano()
	start := time.Now()
	tr.Record(Span{Trace: "w", Stage: StageQueue, StartNs: start.UnixNano(), DurNs: 1})
	spans, _ := tr.Spans()
	if len(spans) != 1 || spans[0].StartNs < before {
		t.Fatalf("span %+v not on the wall clock (before=%d)", spans, before)
	}
}

// TestWriteChromeTraceGolden pins the exact trace_event bytes for a
// request whose engine spans share its trace: the serve span on the
// lane's task row, each engine worker on its own named row with the
// join nested in its split, and a zero-duration steal as an instant.
// The Chrome/Perfetto loaders are outside our tests, so the format is
// frozen here.
func TestWriteChromeTraceGolden(t *testing.T) {
	spans := []Span{
		{Trace: "t1", Stage: StageSearch, StartNs: 1000, DurNs: 9000},
		{Trace: "t1", Stage: StageSplit, StartNs: 2000, DurNs: 3000, Note: "tasks=3"},
		{Trace: "t1", Stage: StageJoin, StartNs: 2500, DurNs: 2500},
		{Trace: "t1", Stage: StageSteal, StartNs: 3000, Worker: 1},
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, spans, 1000, map[int]string{0: "single"}); err != nil {
		t.Fatal(err)
	}
	const want = `{"displayTimeUnit":"ms","traceEvents":[
{"name":"process_name","ph":"M","pid":0,"args":{"name":"single (proc 0)"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1073741824,"args":{"name":"engine worker 0"}},
{"name":"thread_name","ph":"M","pid":0,"tid":1073741825,"args":{"name":"engine worker 1"}},
{"name":"search","cat":"reqtrace","ph":"X","pid":0,"tid":0,"ts":0,"dur":9,"args":{"trace":"t1"}},
{"name":"split","cat":"reqtrace","ph":"X","pid":0,"tid":1073741824,"ts":1,"dur":3,"args":{"note":"tasks=3","trace":"t1"}},
{"name":"join","cat":"reqtrace","ph":"X","pid":0,"tid":1073741824,"ts":1.5,"dur":2.5,"args":{"trace":"t1"}},
{"name":"steal","cat":"reqtrace","ph":"i","s":"t","pid":0,"tid":1073741825,"ts":2,"args":{"trace":"t1","worker":1}}
]}
`
	if sb.String() != want {
		t.Fatalf("trace output drifted:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestWriteChromeTraceEmpty: no spans still yields a loadable document.
func TestWriteChromeTraceEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("empty trace not valid JSON: %v\n%s", err, sb.String())
	}
}
