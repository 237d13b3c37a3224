package main

// Span recording for the traced run. The benchmark records a
// reqtrace.Span around every call it makes into a layer, with the
// operation id as trace id; the serve and shard layers record their own
// stage spans under the same id (it rides the X-GT-Trace header and the
// search context). All spans stay in memory and are written once, at
// exit, as one Chrome trace through reqtrace.WriteChromeTrace.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gametree/internal/reqtrace"
)

// Process lanes of the merged trace. The ring's coordinator and its
// serve front share proc 0, as in a gtserve coordinator process.
const (
	procRing      = 0
	procServe     = 10
	procBench     = 100
	traceCapacity = 1 << 16
)

// traceSet owns every tracer of a traced run. A nil *traceSet is
// "tracing off": every method no-ops and hands out nil tracers, which
// the program treats as tracing off too.
type traceSet struct {
	bench   *reqtrace.Tracer
	tracers []*reqtrace.Tracer
}

func newTraceSet() *traceSet {
	b := reqtrace.New(procBench, "bench", 0, traceCapacity)
	return &traceSet{bench: b, tracers: []*reqtrace.Tracer{b}}
}

// tracer returns a new program tracer for proc, kept for the final
// merge. Spans are recorded only for requests that carry a trace id.
func (t *traceSet) tracer(proc int, role string) *reqtrace.Tracer {
	if t == nil {
		return nil
	}
	tr := reqtrace.New(proc, role, 0, traceCapacity)
	t.tracers = append(t.tracers, tr)
	return tr
}

// id is the trace id of one benchmark operation: the phase that ran it
// and its index there.
func traceID(phase, idx int) string { return fmt.Sprintf("%08x%08x", phase, idx) }

// span records stage [start, now) of trace id on the benchmark lane.
func (t *traceSet) span(id, stage string, start time.Time) {
	if t == nil {
		return
	}
	t.bench.Record(reqtrace.Span{Trace: id, Stage: stage, StartNs: start.UnixNano(), DurNs: time.Since(start).Nanoseconds()})
}

// spans returns every recorded span on one clock (all tracers live in
// this process) plus the overwritten count.
func (t *traceSet) spans() ([]reqtrace.Span, []reqtrace.Dump, int64) {
	var dumps []reqtrace.Dump
	var dropped int64
	for _, tr := range t.tracers {
		d := tr.DumpState()
		dropped += d.Dropped
		dumps = append(dumps, d)
	}
	spans, _ := reqtrace.Merge(dumps)
	return spans, dumps, dropped
}

// write emits the merged Chrome trace to path.
func (t *traceSet) write(path string) error {
	spans, dumps, _ := t.spans()
	base := int64(0)
	if len(spans) > 0 {
		base = spans[0].StartNs
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reqtrace.WriteChromeTrace(f, spans, base, reqtrace.MergeRoles(dumps)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the summed self time of one (lane, stage) pair.
type selfTime struct {
	Proc  int
	Stage string
	Count int
	Total time.Duration
}

// selfTimes computes every span's self time: its duration minus the part
// of it that its children cover. Span carries no parent, so a span's
// parent is the shortest other span of the same trace that encloses it
// (ties go to the earlier-recorded span).
func selfTimes(spans []reqtrace.Span) []selfTime {
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	type key struct {
		proc  int
		stage string
	}
	acc := map[key]*selfTime{}
	for _, idxs := range byTrace {
		children := map[int][]int{}
		for _, c := range idxs {
			cs, ce := spans[c].StartNs, spans[c].StartNs+spans[c].DurNs
			parent := -1
			for _, p := range idxs {
				if p == c {
					continue
				}
				ps, pe := spans[p].StartNs, spans[p].StartNs+spans[p].DurNs
				if ps > cs || pe < ce {
					continue
				}
				if spans[p].DurNs == spans[c].DurNs && p > c {
					continue
				}
				if parent < 0 || spans[p].DurNs < spans[parent].DurNs {
					parent = p
				}
			}
			if parent >= 0 {
				children[parent] = append(children[parent], c)
			}
		}
		for _, p := range idxs {
			self := spans[p].DurNs - covered(spans, children[p])
			k := key{spans[p].Proc, spans[p].Stage}
			st := acc[k]
			if st == nil {
				st = &selfTime{Proc: k.proc, Stage: k.stage}
				acc[k] = st
			}
			st.Count++
			st.Total += time.Duration(self)
		}
	}
	out := make([]selfTime, 0, len(acc))
	for _, st := range acc {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

// covered returns the length of the union of the given spans' intervals.
func covered(spans []reqtrace.Span, idxs []int) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, len(idxs))
	for i, c := range idxs {
		ivs[i] = iv{spans[c].StartNs, spans[c].StartNs + spans[c].DurNs}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
	var total, curS, curE int64
	open := false
	for _, v := range ivs {
		if !open || v.s > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = v.s, v.e, true
		} else if v.e > curE {
			curE = v.e
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
