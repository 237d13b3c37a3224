package reqtrace

// Merging scraped per-process trace dumps into one timeline. The
// coordinator's dump carries per-peer clock offsets estimated from the
// shard protocol's hello→ping echo (see DESIGN.md); Merge rewrites
// every non-coordinator span onto the coordinator's clock with them,
// falling back to the scrape-time NowNs difference when a peer has no
// echo estimate (a coarse bound that still lines the lanes up to within
// the scrape spread). The output feeds two consumers: WriteChromeTrace
// (a trace_event JSON with one lane per process) and Breakdown (the
// per-request, per-stage latency table).

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Merge aligns the spans of the scraped dumps onto one clock: the
// process that published offsets (the coordinator) is the reference;
// every other process's spans are shifted by -offset so that equal
// timestamps mean equal instants. Spans come back sorted by aligned
// start time. The returned base is the smallest aligned start (the
// Chrome trace origin), 0 when there are no spans.
func Merge(dumps []Dump) (spans []Span, base int64) {
	var ref *Dump
	for i := range dumps {
		if len(dumps[i].Offsets) > 0 {
			ref = &dumps[i]
			break
		}
	}
	// Per-proc shift: aligned = raw - shift.
	shift := map[int]int64{}
	for i := range dumps {
		d := &dumps[i]
		if ref == nil || d.Proc == ref.Proc {
			continue
		}
		if o, ok := ref.Offsets[strconv.Itoa(d.Proc)]; ok {
			shift[d.Proc] = o.OffsetNs
		} else if d.NowNs != 0 && ref.NowNs != 0 {
			shift[d.Proc] = d.NowNs - ref.NowNs // scrape-spread fallback
		}
	}
	for _, d := range dumps {
		for _, s := range d.Spans {
			s.StartNs -= shift[s.Proc]
			spans = append(spans, s)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	if len(spans) > 0 {
		base = spans[0].StartNs
	}
	return spans, base
}

// MergeRoles collects each scraped process's self-reported role, for
// labelling the merged trace's lanes.
func MergeRoles(dumps []Dump) map[int]string {
	roles := make(map[int]string, len(dumps))
	for _, d := range dumps {
		roles[d.Proc] = d.Role
	}
	return roles
}

// engineRowBase offsets engine-worker rows (tid) past any shard task
// id, inside the uint32 range trace viewers accept.
const engineRowBase = 1 << 30

// WriteChromeTrace emits merged spans in the Trace Event Format: one
// process lane per ring process (pid = proc, named via process_name
// metadata), tasks on their own rows (tid = task id) so concurrent RPC
// and compute spans do not overdraw each other, engine stages on one
// named row per engine worker, and the trace ID in every event's args
// for Perfetto's flow queries. Zero-duration spans (steals, aborts)
// are instants. Timestamps are microseconds relative to base. roles
// labels each lane (see MergeRoles); missing entries fall back to the
// ring convention (proc 0 coordinates). Deterministic for a given span
// slice. It is the repository's only trace_event writer.
func WriteChromeTrace(w io.Writer, spans []Span, base int64, roles map[int]string) error {
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		_, err = fmt.Fprintf(w, "%s%s", sep, b)
		return err
	}
	type meta struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid,omitempty"`
		Args map[string]any `json:"args"`
	}
	type row struct {
		proc int
		tid  uint64
	}
	seen := map[row]bool{}
	for _, s := range spans {
		if !seen[row{s.Proc, 0}] {
			seen[row{s.Proc, 0}] = true
			role := roles[s.Proc]
			if role == "" {
				role = "worker"
				if s.Proc == 0 {
					role = "coordinator"
				}
			}
			if err := emit(meta{Name: "process_name", Ph: "M", Pid: s.Proc,
				Args: map[string]any{"name": fmt.Sprintf("%s (proc %d)", role, s.Proc)}}); err != nil {
				return err
			}
		}
		if tid := spanRow(s); engineStage(s.Stage) && !seen[row{s.Proc, tid}] {
			seen[row{s.Proc, tid}] = true
			if err := emit(meta{Name: "thread_name", Ph: "M", Pid: s.Proc, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("engine worker %d", s.Worker)}}); err != nil {
				return err
			}
		}
	}
	type event struct {
		Name  string         `json:"name"`
		Cat   string         `json:"cat"`
		Ph    string         `json:"ph"`
		Scope string         `json:"s,omitempty"`
		Pid   int            `json:"pid"`
		Tid   uint64         `json:"tid"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur,omitempty"`
		Args  map[string]any `json:"args,omitempty"`
	}
	for _, s := range spans {
		args := map[string]any{"trace": s.Trace}
		if s.Task != 0 {
			args["task"] = s.Task
		}
		if s.Worker != 0 {
			args["worker"] = s.Worker
		}
		if s.Note != "" {
			args["note"] = s.Note
		}
		e := event{
			Name: s.Stage, Cat: "reqtrace", Ph: "X",
			Pid: s.Proc, Tid: spanRow(s),
			Ts: float64(s.StartNs-base) / 1e3, Dur: float64(s.DurNs) / 1e3,
			Args: args,
		}
		if s.DurNs == 0 {
			e.Ph, e.Scope = "i", "t"
		}
		if err := emit(e); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// spanRow is the trace row (tid) of a span inside its process lane:
// the shard task id, or the engine worker's row for engine stages.
func spanRow(s Span) uint64 {
	if engineStage(s.Stage) {
		return engineRowBase + uint64(s.Worker)
	}
	return s.Task
}

// StageTotal is one stage's aggregate inside a request.
type StageTotal struct {
	Stage string
	Count int
	SumNs int64
	Procs map[int]bool // processes that contributed spans of this stage
}

// RequestBreakdown is the per-stage latency account of one trace.
type RequestBreakdown struct {
	Trace   string
	Stages  []StageTotal // canonical stage order, only populated stages
	TotalNs int64        // the request span's duration (0 when no serve span was captured)
	Procs   []int        // distinct processes that contributed, ascending
}

// Breakdown groups merged spans by trace ID and sums durations per
// stage. Traces come back ordered by the earliest span start, so a
// scrape during a burst lists requests in arrival order.
func Breakdown(spans []Span) []RequestBreakdown {
	type acc struct {
		first  int64
		total  int64
		stages map[string]*StageTotal
		procs  map[int]bool
	}
	byTrace := map[string]*acc{}
	var order []string
	for _, s := range spans {
		a := byTrace[s.Trace]
		if a == nil {
			a = &acc{first: s.StartNs, stages: map[string]*StageTotal{}, procs: map[int]bool{}}
			byTrace[s.Trace] = a
			order = append(order, s.Trace)
		}
		if s.StartNs < a.first {
			a.first = s.StartNs
		}
		a.procs[s.Proc] = true
		st := a.stages[s.Stage]
		if st == nil {
			st = &StageTotal{Stage: s.Stage, Procs: map[int]bool{}}
			a.stages[s.Stage] = st
		}
		st.Count++
		st.SumNs += s.DurNs
		st.Procs[s.Proc] = true
		if s.Stage == StageRequest && s.DurNs > a.total {
			a.total = s.DurNs
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return byTrace[order[i]].first < byTrace[order[j]].first })
	out := make([]RequestBreakdown, 0, len(order))
	for _, tr := range order {
		a := byTrace[tr]
		rb := RequestBreakdown{Trace: tr, TotalNs: a.total}
		for _, stage := range stageNames {
			if st, ok := a.stages[stage]; ok {
				rb.Stages = append(rb.Stages, *st)
			}
		}
		for p := range a.procs {
			rb.Procs = append(rb.Procs, p)
		}
		sort.Ints(rb.Procs)
		out = append(out, rb)
	}
	return out
}

// WriteBreakdown renders breakdowns as an aligned text table, one block
// per trace: stage, span count, summed duration, and the processes the
// stage ran on. Durations print in milliseconds.
func WriteBreakdown(w io.Writer, breakdowns []RequestBreakdown) error {
	for i, rb := range breakdowns {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "trace %s  procs=%v  total=%.3fms\n",
			rb.Trace, rb.Procs, float64(rb.TotalNs)/1e6); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "  %-14s %6s %12s  %s\n", "stage", "spans", "sum_ms", "procs"); err != nil {
			return err
		}
		for _, st := range rb.Stages {
			procs := make([]int, 0, len(st.Procs))
			for p := range st.Procs {
				procs = append(procs, p)
			}
			sort.Ints(procs)
			if _, err := fmt.Fprintf(w, "  %-14s %6d %12.3f  %v\n",
				st.Stage, st.Count, float64(st.SumNs)/1e6, procs); err != nil {
				return err
			}
		}
	}
	return nil
}
