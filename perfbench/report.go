package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// metric is one named, unit-carrying number of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string
}

// report collects one run's metrics and correctness verdict. e2e and
// layer hold the metrics BENCHMARK.json names (reported under --trace 0
// and --trace 1 respectively); info holds supporting numbers that are
// printed but not part of the result object.
type report struct {
	attempted  int
	failed     int
	mismatches []string
	e2e        []metric
	layer      []metric
	info       []metric
	lines      []string // free-form lines printed before the metrics
}

func (r *report) addE2E(name, unit string, v float64, note string) {
	r.e2e = append(r.e2e, metric{name, unit, v, note})
}

func (r *report) addLayer(name, unit string, v float64, note string) {
	r.layer = append(r.layer, metric{name, unit, v, note})
}

func (r *report) addInfo(name, unit string, v float64, note string) {
	r.info = append(r.info, metric{name, unit, v, note})
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// mismatch records an oracle failure; any mismatch fails the run.
func (r *report) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

// count adds a window's attempted and failed operations to the totals.
func (r *report) count(w window) {
	r.attempted += len(w.samples) + w.inFlight
	r.failed += w.failed()
}

func (r *report) correct() bool { return len(r.mismatches) == 0 }

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every metric with its unit, one per line, then the result
// object (the traced run's layer metrics when traced, else the
// end-to-end ones) as the last line.
func (r *report) write(w io.Writer, traced bool) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	for _, m := range r.mismatches {
		fmt.Fprintln(w, "MISMATCH", m)
	}
	section := func(title string, ms []metric) {
		for _, m := range ms {
			line := fmt.Sprintf("%-8s %-30s %14s %s", title, m.Name, formatValue(m.Value), m.Unit)
			if m.Note != "" {
				line += "  # " + m.Note
			}
			fmt.Fprintln(w, strings.TrimRight(line, " "))
		}
	}
	section("info", r.info)
	section("e2e", r.e2e)
	section("layer", r.layer)
	reported := r.e2e
	if traced {
		reported = r.layer
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultValue{}}
	for _, m := range reported {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}
