package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func run(commit string) Run {
	return Run{
		Generated: "2026-08-06T00:00:00Z", Commit: commit,
		GoVersion: "go1.24.0", GOMAXPROCS: 2,
		Benchmarks: []Item{{Workload: "tree", Name: "pooled", Workers: 2, NodesPerSec: 1e6}},
	}
}

// TestAppendMirrorsLatest: Append must keep the v1-compatible top-level
// snapshot in lockstep with the newest history entry.
func TestAppendMirrorsLatest(t *testing.T) {
	var d Doc
	d.Append(run("aaa"))
	d.Append(run("bbb"))
	if d.Schema != SchemaV2 || len(d.Runs) != 2 {
		t.Fatalf("history wrong: schema=%q runs=%d", d.Schema, len(d.Runs))
	}
	if d.Commit != "bbb" || d.Latest().Commit != "bbb" {
		t.Fatalf("top level mirrors %q, latest is %q", d.Commit, d.Latest().Commit)
	}
	if len(d.Benchmarks) != 1 || d.Benchmarks[0].Key() != "tree/pooled/w2" {
		t.Fatalf("mirrored benchmarks wrong: %+v", d.Benchmarks)
	}
}

// TestLoadNormalizesV1: a v1 snapshot round-trips through disk into a
// one-run v2-shaped history carrying the machine's Go version.
func TestLoadNormalizesV1(t *testing.T) {
	r := run("ccc")
	d := Doc{
		Schema: SchemaV1, Generated: r.Generated, Commit: r.Commit,
		Machine:    Machine{GoVersion: "go1.24.0", GOMAXPROCS: 2},
		Benchmarks: r.Benchmarks,
	}
	path := filepath.Join(t.TempDir(), "v1.json")
	if err := Write(path, &d); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 || got.Runs[0].Commit != "ccc" || got.Runs[0].GoVersion != "go1.24.0" {
		t.Fatalf("v1 not normalized: %+v", got.Runs)
	}
	// Appending to the loaded doc upgrades the schema and grows history.
	got.Append(run("ddd"))
	if err := Write(path, got); err != nil {
		t.Fatal(err)
	}
	again, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if again.Schema != SchemaV2 || len(again.Runs) != 2 {
		t.Fatalf("upgrade broken: schema=%q runs=%d", again.Schema, len(again.Runs))
	}
}

// TestLoadCommittedTrajectory: the committed BENCH_engine.json, whose
// older runs carry rows and columns of retired configurations (spawn,
// pooled_spine, pooled_wmK, speedup_vs_spawn), must keep loading.
func TestLoadCommittedTrajectory(t *testing.T) {
	d, err := Load(filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	retired := map[string]bool{}
	for _, r := range d.Runs {
		for _, it := range r.Benchmarks {
			if it.Name == "spawn" || it.Name == "pooled_spine" {
				retired[it.Name] = true
			}
		}
	}
	if len(d.Runs) < 2 || !retired["spawn"] || !retired["pooled_spine"] {
		t.Fatalf("history lost: %d runs, retired rows seen %v", len(d.Runs), retired)
	}
}

// TestLoadRejectsUnknownSchema guards the error path the CLIs rely on.
func TestLoadRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	raw, _ := json.Marshal(map[string]any{"schema": "gametree/bench-engine/v99"})
	if err := writeRaw(path, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func writeRaw(path string, raw []byte) error {
	return os.WriteFile(path, raw, 0o644)
}

func TestItemKeyShards(t *testing.T) {
	plain := Item{Workload: "random-d8-dup75", Name: "search", Workers: 8}
	if got, want := plain.Key(), "random-d8-dup75/search/w8"; got != want {
		t.Errorf("unsharded key %q, want %q (must align with pre-shard documents)", got, want)
	}
	sharded := plain
	sharded.Shards = 2
	if got, want := sharded.Key(), "random-d8-dup75/search/w8/s2"; got != want {
		t.Errorf("sharded key %q, want %q", got, want)
	}
}
