package telemetry

import (
	"sync"
	"testing"

	"gametree/internal/reqtrace"
)

// TestNilRecorderSafe: a nil *Recorder is the documented "telemetry off"
// value — every method must be a no-op, not a panic.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if s := r.Shard(3); s != nil {
		t.Fatalf("nil recorder returned shard %v", s)
	}
	if r.Now() != 0 {
		t.Fatal("nil recorder Now() != 0")
	}
	r.Reset()
	snap := r.Snapshot()
	if len(snap.PerWorker) != 0 || snap.Total != (Counts{}) {
		t.Fatalf("nil recorder snapshot not empty: %+v", snap)
	}
}

// TestNilRecorderEvents: scheduler events (steal, abort, join) reach the
// span buffer through the recorder's tracer. A nil recorder keeps no
// tracer, and the nil tracer it hands out drops every event.
func TestNilRecorderEvents(t *testing.T) {
	var r *Recorder
	r.SetTracer(reqtrace.New(0, "x", 1, 4))
	tr := r.Tracer()
	if tr != nil {
		t.Fatal("nil recorder kept a tracer")
	}
	tr.Record(reqtrace.Span{Trace: "t1", Stage: reqtrace.StageSteal})
	if spans, dropped := tr.Spans(); spans != nil || dropped != 0 {
		t.Fatalf("nil recorder stored events: %v, %d dropped", spans, dropped)
	}
}

// TestShardGrowthAndIdentity: Shard(i) grows the shard set as needed and
// is stable — the same index always returns the same block.
func TestShardGrowthAndIdentity(t *testing.T) {
	r := NewRecorder()
	s5 := r.Shard(5)
	if s5 == nil {
		t.Fatal("Shard(5) returned nil")
	}
	if got := len(r.Snapshot().PerWorker); got != 6 {
		t.Fatalf("shard set grew to %d, want 6", got)
	}
	if r.Shard(5) != s5 || r.Shard(2) == s5 {
		t.Fatal("shard identity broken")
	}
	if r.Shard(-1) != nil {
		t.Fatal("negative index must return nil")
	}
}

// TestReserveShards: each reservation gets the next disjoint range after
// every shard already present; a nil recorder reserves nothing.
func TestReserveShards(t *testing.T) {
	var off *Recorder
	if off.ReserveShards(4) != 0 {
		t.Fatal("nil recorder must reserve at base 0")
	}
	r := NewRecorder()
	if a, b := r.ReserveShards(2), r.ReserveShards(3); a != 0 || b != 2 {
		t.Fatalf("bases %d, %d; want 0, 2", a, b)
	}
	r.Shard(6)
	if c := r.ReserveShards(1); c != 7 {
		t.Fatalf("reservation after Shard(6) at %d, want 7", c)
	}
	if got := len(r.Snapshot().PerWorker); got != 8 {
		t.Fatalf("%d shards, want 8", got)
	}
}

// TestSnapshotSumsShards: Snapshot.Total must be the exact field-wise sum
// of the shards, except DequeMax which takes the max.
func TestSnapshotSumsShards(t *testing.T) {
	r := NewRecorder()
	a, b := r.Shard(0), r.Shard(1)
	a.Tasks.Add(3)
	b.Tasks.Add(4)
	a.Steals.Add(1)
	b.StealAttempts.Add(2)
	a.TTProbes.Add(10)
	a.TTHits.Add(7)
	a.ObserveDeque(5)
	b.ObserveDeque(9)
	b.ObserveDeque(2) // must not lower the mark
	a.MsgsSent.Add(11)
	b.MsgsStale.Add(1)

	snap := r.Snapshot()
	if snap.Total.Tasks != 7 || snap.Total.Steals != 1 || snap.Total.StealAttempts != 2 {
		t.Fatalf("bad sums: %+v", snap.Total)
	}
	if snap.Total.DequeMax != 9 {
		t.Fatalf("DequeMax %d, want max 9", snap.Total.DequeMax)
	}
	if snap.Total.TTProbes != 10 || snap.Total.TTHits != 7 {
		t.Fatalf("TT sums: %+v", snap.Total)
	}
	if snap.Total.MsgsSent != 11 || snap.Total.MsgsStale != 1 {
		t.Fatalf("msg sums: %+v", snap.Total)
	}
	if snap.PerWorker[0].Tasks != 3 || snap.PerWorker[1].Tasks != 4 {
		t.Fatalf("per-worker view lost: %+v", snap.PerWorker)
	}
}

// TestReportDerivations pins the derived ratios: steal efficiency, TT hit
// rate, abort-drain mean and load skew, including the no-denominator
// cases which must read 0 rather than NaN.
func TestReportDerivations(t *testing.T) {
	r := NewRecorder()
	a, b := r.Shard(0), r.Shard(1)
	a.Tasks.Add(30)
	b.Tasks.Add(10)
	a.StealAttempts.Add(8)
	a.Steals.Add(6)
	a.AbortDrains.Add(2)
	a.AbortDrainNs.Add(4000) // mean 2000ns = 2µs
	a.TTProbes.Add(100)
	a.TTHits.Add(25)
	rep := r.Snapshot().Report()
	if rep.Workers != 2 {
		t.Fatalf("workers %d", rep.Workers)
	}
	if rep.StealEfficiency != 0.75 {
		t.Fatalf("steal efficiency %v, want 0.75", rep.StealEfficiency)
	}
	if rep.TTHitRate != 0.25 {
		t.Fatalf("tt hit rate %v, want 0.25", rep.TTHitRate)
	}
	if rep.AbortDrainMeanUs != 2.0 {
		t.Fatalf("abort drain mean %vµs, want 2", rep.AbortDrainMeanUs)
	}
	// max 30 over mean (40/2)=20 → skew 1.5
	if rep.LoadSkew != 1.5 {
		t.Fatalf("load skew %v, want 1.5", rep.LoadSkew)
	}
	if len(rep.PerWorkerTasks) != 2 || rep.PerWorkerTasks[0] != 30 || rep.PerWorkerTasks[1] != 10 {
		t.Fatalf("per-worker tasks %v", rep.PerWorkerTasks)
	}

	empty := NewRecorder().Snapshot().Report()
	if empty.StealEfficiency != 0 || empty.TTHitRate != 0 || empty.AbortDrainMeanUs != 0 || empty.LoadSkew != 0 {
		t.Fatalf("empty report has non-zero ratios: %+v", empty)
	}
}

// TestReset zeroes counters but keeps the shard set and the attached
// tracer.
func TestReset(t *testing.T) {
	r := NewRecorder()
	tr := reqtrace.New(0, "x", 1, 4)
	r.SetTracer(tr)
	r.Shard(1).Tasks.Add(5)
	r.Reset()
	snap := r.Snapshot()
	if len(snap.PerWorker) != 2 {
		t.Fatalf("Reset dropped shards: %d", len(snap.PerWorker))
	}
	if snap.Total.Tasks != 0 {
		t.Fatalf("Reset kept counters: %+v", snap.Total)
	}
	if r.Tracer() != tr {
		t.Fatal("Reset detached the tracer")
	}
}

// TestSnapshotConcurrentWithWrites: Snapshot must be callable while the
// single writer of each shard is incrementing. Under -race this is the
// proof that the atomics make mid-run snapshots safe.
func TestSnapshotConcurrentWithWrites(t *testing.T) {
	r := NewRecorder()
	const writers = 4
	const perWriter = 10000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		sh := r.Shard(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				sh.Tasks.Add(1)
				sh.ObserveDeque(int64(j % 7))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
			default:
			}
			snap := r.Snapshot()
			if snap.Total.Tasks > writers*perWriter {
				t.Errorf("overcount: %d", snap.Total.Tasks)
				return
			}
			if snap.Total.Tasks == writers*perWriter {
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := r.Snapshot().Total.Tasks; got != writers*perWriter {
		t.Fatalf("final count %d, want %d", got, writers*perWriter)
	}
}
