package main

import (
	"path/filepath"
	"strings"
	"testing"

	"gametree/internal/benchfmt"
)

// synthRun builds one trajectory point whose tree/pooled/w2 row runs at
// the given throughput; the other rows are held constant so only one
// configuration can move.
func synthRun(commit string, pooledNps float64) benchfmt.Run {
	item := func(name string, workers int, nps float64) benchfmt.Item {
		return benchfmt.Item{
			Workload: "tree", Name: name, Workers: workers, Reps: 5,
			NsPerOp: 1e9 / nps * 1000, NodesPerOp: 1000, NodesPerSec: nps,
		}
	}
	return benchfmt.Run{
		Generated:  "2026-08-06T00:00:00Z",
		Commit:     commit,
		GoVersion:  "go1.24.0",
		GOMAXPROCS: 1,
		Benchmarks: []benchfmt.Item{
			item("sequential", 0, 20e6),
			item("pooled", 2, pooledNps),
		},
	}
}

func writeDoc(t *testing.T, path string, runs ...benchfmt.Run) {
	t.Helper()
	var d benchfmt.Doc
	d.Schema = benchfmt.SchemaV2
	for _, r := range runs {
		d.Append(r)
	}
	if err := benchfmt.Write(path, &d); err != nil {
		t.Fatal(err)
	}
}

// TestCompareIdentical: identical baseline and candidate must pass with
// zero regressions (the acceptance gate's exit-zero case).
func TestCompareIdentical(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cand := filepath.Join(dir, "cand.json")
	writeDoc(t, base, synthRun("aaa", 30e6))
	writeDoc(t, cand, synthRun("bbb", 30e6))
	var sb strings.Builder
	n, err := compare(&sb, []string{base, cand}, "nodes_per_sec", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("identical docs reported %d regressions:\n%s", n, sb.String())
	}
	if !strings.Contains(sb.String(), "tree/pooled/w2") {
		t.Fatalf("output missing aligned config key:\n%s", sb.String())
	}
}

// TestCompareRegressed: a 30% throughput drop must be flagged (the
// acceptance gate's exit-nonzero case), and the verdict column must say
// so for the right configuration only.
func TestCompareRegressed(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cand := filepath.Join(dir, "cand.json")
	writeDoc(t, base, synthRun("aaa", 30e6), synthRun("aab", 31e6), synthRun("aac", 29e6))
	writeDoc(t, cand, synthRun("bbb", 21e6)) // ~30% below the 30e6 mean
	var sb strings.Builder
	n, err := compare(&sb, []string{base, cand}, "nodes_per_sec", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("want exactly 1 regression, got %d:\n%s", n, sb.String())
	}
	out := sb.String()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "REGRESSED") && !strings.Contains(line, "tree/pooled/w2") {
			t.Fatalf("wrong configuration flagged:\n%s", out)
		}
	}
	if !strings.Contains(out, "REGRESSED") {
		t.Fatalf("regression not flagged:\n%s", out)
	}
	// The inverted metrics must flag the same regression (ns/op rose).
	sb.Reset()
	if n, err = compare(&sb, []string{base, cand}, "ns_per_op", 0.15); err != nil || n != 1 {
		t.Fatalf("ns_per_op direction broken: n=%d err=%v\n%s", n, err, sb.String())
	}
}

// TestCompareTrajectory: a single v2 file with multiple runs diffs its
// latest run against the earlier ones.
func TestCompareTrajectory(t *testing.T) {
	dir := t.TempDir()
	traj := filepath.Join(dir, "traj.json")
	writeDoc(t, traj, synthRun("aaa", 30e6), synthRun("bbb", 30.5e6), synthRun("ccc", 12e6))
	var sb strings.Builder
	n, err := compare(&sb, []string{traj}, "nodes_per_sec", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("trajectory mode missed the regression (n=%d):\n%s", n, sb.String())
	}
	// A single-run trajectory has no baseline: that is an error, not a pass.
	solo := filepath.Join(dir, "solo.json")
	writeDoc(t, solo, synthRun("aaa", 30e6))
	if _, err := compare(&sb, []string{solo}, "nodes_per_sec", 0.15); err == nil {
		t.Fatal("single-run trajectory must error, not pass")
	}
}

// TestCompareV1Baseline: a legacy v1 snapshot document must be accepted
// as a baseline (Load normalizes it into a one-run history).
func TestCompareV1Baseline(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.json")
	run := synthRun("aaa", 30e6)
	d := benchfmt.Doc{
		Schema:     benchfmt.SchemaV1,
		Generated:  run.Generated,
		Commit:     run.Commit,
		Benchmarks: run.Benchmarks,
	}
	if err := benchfmt.Write(v1, &d); err != nil {
		t.Fatal(err)
	}
	cand := filepath.Join(dir, "cand.json")
	writeDoc(t, cand, synthRun("bbb", 29e6))
	var sb strings.Builder
	n, err := compare(&sb, []string{v1, cand}, "nodes_per_sec", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("3%% wobble flagged as regression:\n%s", sb.String())
	}
}
