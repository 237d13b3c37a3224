// Package benchfmt defines the BENCH_engine.json document shared by
// gtbench (writer) and gtstat (reader/differ).
//
// Schema v1 was a single snapshot: machine info plus one set of
// benchmark rows, overwritten on every run. Schema v2 turns the file
// into a trajectory: a runs[] history — each run stamped with the
// commit, UTC date, Go version and GOMAXPROCS — with the latest run
// mirrored at the top level so v1 consumers (gtbench -checkbench,
// dashboards) keep working unchanged. Load normalizes both versions
// into the v2 shape, so readers only ever see a populated Runs slice.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"

	"gametree/internal/telemetry"
)

// Schema identifiers. V2 readers accept both.
const (
	SchemaV1 = "gametree/bench-engine/v1"
	SchemaV2 = "gametree/bench-engine/v2"
)

// Machine describes the host a document was produced on. Per-run
// variation (GOMAXPROCS, Go version) is also stamped on each Run, since
// a trajectory may span toolchain upgrades.
type Machine struct {
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Item is one benchmark row: a (workload, configuration, workers)
// triple with its throughput measurements.
type Item struct {
	Workload string `json:"workload"` // tree | connect4
	Name     string `json:"name"`     // sequential | pooled | pooled_tt (older runs: spawn, pooled_spine, pooled_wmK)
	Workers  int    `json:"workers"`  // 0 for sequential
	// Shards is the number of worker processes behind the serving tier
	// for distributed gtload rows; 0 (the default) means a single
	// process and keeps the row key identical to pre-shard documents.
	Shards      int     `json:"shards,omitempty"`
	Reps        int     `json:"reps"`
	NsPerOp     float64 `json:"ns_per_op"`
	NodesPerOp  float64 `json:"nodes_per_op"`
	NodesPerSec float64 `json:"nodes_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Value       int32   `json:"value"` // search value: must agree per workload
	// Throughput ratio against the sequential baseline of the same
	// workload (zero for the baseline itself).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
	// Serving-layer measurements (gtload / BENCH_serve.json rows only):
	// completed-request throughput, latency quantiles over completed
	// requests, and the fraction of settled requests that did not
	// complete with 2xx (shed, timed out or failed; requests cut off by
	// the end of the run window are not settled).
	QPS     float64 `json:"qps,omitempty"`
	P50Ns   float64 `json:"p50_ns,omitempty"`
	P99Ns   float64 `json:"p99_ns,omitempty"`
	ErrRate float64 `json:"err_rate,omitempty"`
	// Degraded counts 200s answered in degraded mode (shard ring empty,
	// coordinator fell back to local compute) — exact values, reduced
	// capacity. Nonzero only for chaos/fault rows.
	Degraded int `json:"degraded,omitempty"`
}

// Key identifies the configuration a row measures, for aligning rows
// across runs.
func (it Item) Key() string {
	key := fmt.Sprintf("%s/%s/w%d", it.Workload, it.Name, it.Workers)
	if it.Shards > 0 {
		key += fmt.Sprintf("/s%d", it.Shards)
	}
	return key
}

// TelemetryEntry pairs a telemetry report (counters plus histogram
// quantiles) with the configuration that produced it.
type TelemetryEntry struct {
	Workload string           `json:"workload"`
	Name     string           `json:"name"`
	Workers  int              `json:"workers"`
	Report   telemetry.Report `json:"report"`
}

// Run is one point of the trajectory. Label distinguishes runs of the
// same document measuring different setups (gtload stamps "baseline" vs
// "serve"); rows still align across runs by Item.Key alone, which is
// what lets gtstat gate one setup against the other.
type Run struct {
	Generated  string           `json:"generated"` // UTC RFC3339
	Commit     string           `json:"commit"`
	Label      string           `json:"label,omitempty"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Benchmarks []Item           `json:"benchmarks"`
	Telemetry  []TelemetryEntry `json:"telemetry,omitempty"`
}

// Doc is the on-disk document. The top-level Generated/Commit/
// Benchmarks/Telemetry fields mirror the latest run (v1 compatibility);
// Runs holds the full history, oldest first.
type Doc struct {
	Schema     string           `json:"schema"`
	Generated  string           `json:"generated"`
	Commit     string           `json:"commit"`
	Machine    Machine          `json:"machine"`
	Benchmarks []Item           `json:"benchmarks"`
	Telemetry  []TelemetryEntry `json:"telemetry,omitempty"`
	Runs       []Run            `json:"runs,omitempty"`
}

// Normalize brings a parsed document to the v2 shape: a v1 document (or
// a v2 document with an empty history) has its top-level snapshot
// synthesized into a single-entry Runs slice. Returns an error for an
// unknown schema.
func (d *Doc) Normalize() error {
	switch d.Schema {
	case SchemaV1, SchemaV2:
	default:
		return fmt.Errorf("unknown schema %q (want %q or %q)", d.Schema, SchemaV1, SchemaV2)
	}
	if len(d.Runs) == 0 && len(d.Benchmarks) > 0 {
		d.Runs = []Run{{
			Generated:  d.Generated,
			Commit:     d.Commit,
			GoVersion:  d.Machine.GoVersion,
			GOMAXPROCS: d.Machine.GOMAXPROCS,
			Benchmarks: d.Benchmarks,
			Telemetry:  d.Telemetry,
		}}
	}
	return nil
}

// Append adds a run to the history and mirrors it at the top level,
// upgrading the document to schema v2.
func (d *Doc) Append(r Run) {
	d.Schema = SchemaV2
	d.Runs = append(d.Runs, r)
	d.Generated = r.Generated
	d.Commit = r.Commit
	d.Benchmarks = r.Benchmarks
	d.Telemetry = r.Telemetry
}

// Latest returns the most recent run, or nil for an empty document.
func (d *Doc) Latest() *Run {
	if len(d.Runs) == 0 {
		return nil
	}
	return &d.Runs[len(d.Runs)-1]
}

// Load reads and normalizes a document (v1 or v2).
func Load(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := d.Normalize(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// Write marshals the document to path with a trailing newline.
func Write(path string, d *Doc) error {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
