// Command gtstat is the bench-regression differ for the
// BENCH_engine.json and BENCH_serve.json trajectories (internal/benchfmt).
// Engine rows gate on nodes/sec (or ns/op, allocs/op); serving rows from
// gtload gate on qps or p99_ns via -metric.
//
// It loads one or more documents, aligns benchmark rows across runs by
// (workload, configuration, workers), and compares the candidate run —
// the latest run of the last file — against the baseline sample formed
// by every other run. For each configuration it reports the throughput
// delta (nodes/sec, candidate vs baseline mean) and the two-sided
// Mann-Whitney rank-test p-value of the baseline-vs-candidate samples
// (internal/stats), and exits nonzero if any configuration regressed
// beyond the threshold.
//
// Usage:
//
//	gtstat BENCH_engine.json
//	        # trajectory mode: latest run vs all earlier runs
//	gtstat old.json new.json
//	        # cross-file mode: new's latest run vs every run of old
//	gtstat -threshold 0.10 old.json mid.json new.json
//	        # tighter gate; baseline pools old and mid
//
// A configuration present on only one side is reported and skipped, not
// failed: worker sweeps legitimately differ across hosts.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"gametree/internal/benchfmt"
	"gametree/internal/stats"
)

func main() {
	var (
		threshold = flag.Float64("threshold", 0.15, "fail on throughput regressions beyond this fraction (0.15 = 15%)")
		metric    = flag.String("metric", "nodes_per_sec", "benchmark column to compare: nodes_per_sec | ns_per_op | allocs_per_op | qps | p99_ns")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "gtstat: need at least one BENCH_engine.json document")
		flag.Usage()
		os.Exit(2)
	}
	regressions, err := compare(os.Stdout, flag.Args(), *metric, *threshold)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gtstat:", err)
		os.Exit(2)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "gtstat: %d configuration(s) regressed beyond %.0f%%\n",
			regressions, *threshold*100)
		os.Exit(1)
	}
}

// metricOf extracts the compared column. Direction matters: nodes/sec
// regresses downward, ns/op and allocs/op regress upward, so the latter
// two are negated to make "lower sample value = worse" uniform.
func metricOf(it benchfmt.Item, metric string) (float64, error) {
	switch metric {
	case "nodes_per_sec":
		return it.NodesPerSec, nil
	case "ns_per_op":
		return -it.NsPerOp, nil
	case "allocs_per_op":
		return -it.AllocsPerOp, nil
	case "qps":
		return it.QPS, nil
	case "p99_ns":
		return -it.P99Ns, nil
	}
	return 0, fmt.Errorf("unknown metric %q", metric)
}

// compare runs the diff and returns the number of regressed
// configurations. Baseline = every run except the last file's latest;
// candidate = the last file's latest run.
func compare(w io.Writer, paths []string, metric string, threshold float64) (int, error) {
	var docs []*benchfmt.Doc
	for _, p := range paths {
		d, err := benchfmt.Load(p)
		if err != nil {
			return 0, err
		}
		if d.Latest() == nil {
			return 0, fmt.Errorf("%s: document has no runs", p)
		}
		docs = append(docs, d)
	}

	last := docs[len(docs)-1]
	candidate := last.Latest()
	baseline := map[string][]float64{}
	candVals := map[string]float64{}
	var baseRuns int
	addRun := func(r *benchfmt.Run) error {
		baseRuns++
		for _, it := range r.Benchmarks {
			v, err := metricOf(it, metric)
			if err != nil {
				return err
			}
			baseline[it.Key()] = append(baseline[it.Key()], v)
		}
		return nil
	}
	for _, d := range docs[:len(docs)-1] {
		for i := range d.Runs {
			if err := addRun(&d.Runs[i]); err != nil {
				return 0, err
			}
		}
	}
	for i := range last.Runs[:len(last.Runs)-1] {
		if err := addRun(&last.Runs[i]); err != nil {
			return 0, err
		}
	}
	if baseRuns == 0 {
		return 0, fmt.Errorf("no baseline runs: need a second document or a trajectory with >= 2 runs")
	}
	for _, it := range candidate.Benchmarks {
		v, err := metricOf(it, metric)
		if err != nil {
			return 0, err
		}
		candVals[it.Key()] = v
	}

	keys := make([]string, 0, len(candVals))
	for k := range candVals {
		if _, ok := baseline[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return 0, fmt.Errorf("no configurations in common between baseline and candidate")
	}

	fmt.Fprintf(w, "candidate: %s (%s), baseline: %d run(s), metric: %s, threshold: %.0f%%\n\n",
		candidate.Commit, candidate.Generated, baseRuns, metric, threshold*100)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "config\tbaseline(n)\tcandidate\tdelta\tp(MW)\tverdict")
	regressions := 0
	for _, k := range keys {
		base := baseline[k]
		var bw stats.Welford
		for _, v := range base {
			bw.Add(v)
		}
		cand := candVals[k]
		// (cand-mean)/|mean| keeps "negative delta = regression" for the
		// negated metrics too, where both values are below zero.
		delta := (cand - bw.Mean()) / math.Abs(bw.Mean())
		p := stats.MannWhitneyP(base, []float64{cand})
		verdict := "ok"
		if delta < -threshold {
			verdict = "REGRESSED"
			regressions++
		} else if delta > threshold {
			verdict = "improved"
		}
		fmt.Fprintf(tw, "%s\t%s(%d)\t%s\t%+.1f%%\t%.3f\t%s\n",
			k, fmtMetric(bw.Mean()), len(base), fmtMetric(cand), delta*100, p, verdict)
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	for k := range baseline {
		if _, ok := candVals[k]; !ok {
			fmt.Fprintf(w, "note: %s only in baseline\n", k)
		}
	}
	for _, it := range candidate.Benchmarks {
		if _, ok := baseline[it.Key()]; !ok {
			fmt.Fprintf(w, "note: %s only in candidate\n", it.Key())
		}
	}
	return regressions, nil
}

// fmtMetric renders an absolute metric value compactly (the sign flip
// from metricOf is undone for display).
func fmtMetric(v float64) string {
	if v < 0 {
		v = -v
	}
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.1f", v)
}
