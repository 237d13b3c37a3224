package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gametree/internal/pns"
	"gametree/internal/reqtrace"
)

// TestOpenLoopChargesStall injects a 200 ms stall into a one-at-a-time
// system and checks that every request that came due during it is
// charged the wait from its due time, and that the generator reports
// itself late.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate  = 200.0
		k     = 50 // the request that stalls the system, due at 250 ms
		stall = 200 * time.Millisecond
	)
	var mu sync.Mutex // the system under test serves one request at a time
	w := openLoop(rate, time.Second, 2, 0, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		if i == k {
			time.Sleep(stall)
		}
		return nil
	})
	if w.failed() != 0 || w.backlog != 0 {
		t.Fatalf("failed=%d backlog=%d, want 0", w.failed(), w.backlog)
	}
	charged := 0
	for _, s := range w.samples {
		sinceStall := time.Duration(float64(s.idx-k) / rate * float64(time.Second))
		if s.idx <= k || sinceStall >= stall-20*time.Millisecond {
			continue
		}
		// Due sinceStall after the stall began, so it waited at least
		// the rest of the stall.
		if want := stall - sinceStall - 10*time.Millisecond; s.lat < want {
			t.Errorf("request %d due %v into the stall: latency %v, want >= %v", s.idx, sinceStall, s.lat, want)
		}
		charged++
	}
	if charged < 30 {
		t.Fatalf("only %d requests came due during the stall", charged)
	}
	if late := quantile(w.lateMs(), 0.99); late < 100 {
		t.Errorf("late p99 = %.1f ms, want the stall to show (>= 100 ms)", late)
	}
}

// TestClosedLoopInFlight checks that the operation running when the
// window closes is reported in flight, not as a sample or a failure.
func TestClosedLoopInFlight(t *testing.T) {
	w := closedLoop(50*time.Millisecond, 0, func(int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if w.inFlight != 1 || len(w.samples) != 2 || w.failed() != 0 {
		t.Fatalf("inFlight=%d samples=%d failed=%d, want 1, 2, 0", w.inFlight, len(w.samples), w.failed())
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// runOutput runs the benchmark in-process and returns its printed lines
// and decoded last line.
func runOutput(t *testing.T, args ...string) ([]string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errb.String())
	}
	var lines []string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("result correct=%v attempted=%d", res.Correct, res.Attempted)
	}
	return lines, res
}

// checkPrinted asserts that every named metric is printed on a line of
// its section with its unit, and is in the result with the same unit,
// and that the result holds nothing else.
func checkPrinted(t *testing.T, section string, want []struct{ Name, Unit string }, lines []string, res result) {
	t.Helper()
	for _, m := range want {
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) >= 4 && f[0] == section && f[1] == m.Name && f[3] == m.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s metric %s not printed with unit %s", section, m.Name, m.Unit)
		}
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("%s metric %s missing from the result or unit %q != %q", section, m.Name, v.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
}

// TestEveryMetricPrinted runs every workload briefly, end to end, and
// one traced run, and checks each metric BENCHMARK.json names.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	f := readBenchmarkFile(t)
	// The traced run writes its Chrome trace under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	// Every workload the benchmark runs, listed or not, prints every
	// end-to-end metric.
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		lines, res := runOutput(t, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0")
		checkPrinted(t, "e2e", f.EndToEnd, lines, res)
	}
	lines, res := runOutput(t, "--workload", "pns-solve", "--seed", "3", "--seconds", "1", "--trace", "1")
	checkPrinted(t, "layer", f.PerLayer, lines, res)
}

// TestPlantedWrongValueFails plants a wrong answer in each oracle check
// and expects the run to be marked incorrect.
func TestPlantedWrongValueFails(t *testing.T) {
	c4 := &c4Workload{positions: c4Openings(5, 2, c4Plies), values: make([]int32, 2)}
	st := newEngineState(2, true)
	defer st.close()
	op := c4.op(st, nil, 0)
	for i := range c4.positions {
		if err := op(i); err != nil {
			t.Fatal(err)
		}
	}
	rep := &report{}
	c4.check(rep, []int{0, 1}, 2)
	if !rep.correct() {
		t.Fatalf("honest c4 values failed the oracle: %v", rep.mismatches)
	}
	c4.values[1]++
	c4.check(rep, []int{0, 1}, 2)
	if rep.correct() || len(rep.mismatches) != 1 {
		t.Fatalf("planted c4 value: mismatches %v, want exactly one", rep.mismatches)
	}

	inst := pnsInstances(5, 1)[0]
	wrong := pns.Proven
	if inst.grundy != 0 {
		wrong = pns.Disproven
	}
	if pnsVerdictOK(inst, wrong) == nil {
		t.Fatalf("planted pns verdict %v for %s passed", wrong, inst.name)
	}

	sw := newServeWorkload(5, 3)
	sw.values[2], sw.got[2] = 1<<20, true
	rep = &report{}
	sw.check(rep, 2)
	if rep.correct() {
		t.Fatal("planted serve value passed the oracle")
	}
	var out bytes.Buffer
	if err := rep.write(&out, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct {
		t.Fatalf("result line %q: correct must be false (err %v)", lines[len(lines)-1], err)
	}
}

func TestQPSAtSLO(t *testing.T) {
	pass := func(rate, p99 float64) rung { return rung{rate: rate, p99: p99, pass: true} }
	fail := func(rate, p99 float64) rung { return rung{rate: rate, p99: p99} }
	for _, tc := range []struct {
		rungs []rung
		want  float64
	}{
		{[]rung{pass(300, 10), pass(450, 30), fail(675, 70)}, 450 + 225*20.0/40},
		{[]rung{pass(300, 10), fail(450, 20)}, 300 + 150*40.0/190}, // backlog: counts as overloaded
		{[]rung{fail(300, 100)}, 150},
		{[]rung{pass(300, 10), pass(450, 20)}, 450},
	} {
		if got, _ := qpsAtSLO(tc.rungs); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("qpsAtSLO(%+v) = %v, want %v", tc.rungs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []reqtrace.Span{
		{Trace: "a", Proc: procBench, Stage: "outer", StartNs: 0, DurNs: 100},
		{Trace: "a", Proc: 1, Stage: "left", StartNs: 10, DurNs: 40},
		{Trace: "a", Proc: 2, Stage: "right", StartNs: 30, DurNs: 40},
		{Trace: "a", Proc: 2, Stage: "inner", StartNs: 55, DurNs: 10},
		{Trace: "b", Proc: procBench, Stage: "outer", StartNs: 0, DurNs: 50},
	}
	got := map[string]time.Duration{}
	for _, st := range selfTimes(spans) {
		got[st.Stage] = st.Total
	}
	// outer: 100 - union(10..50, 30..70) = 40, plus trace b's 50; inner
	// lies only inside right.
	want := map[string]time.Duration{"outer": 90, "left": 40, "right": 30, "inner": 10}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
}

// TestSteadyPart checks that a stall is charged to the chunk it falls
// in, and that the chunk is left out of the end-to-end figures when the
// hypervisor took the CPU meanwhile.
func TestSteadyPart(t *testing.T) {
	start := time.Now()
	w := window{start: start}
	at := time.Duration(0)
	for i := 0; i < 2*rateChunks*10; i++ {
		at += 10 * time.Millisecond
		if i == 25 {
			at += 500 * time.Millisecond
		}
		w.samples = append(w.samples, sample{idx: i, done: at})
	}
	w.elapsed = at
	chs := w.chunks(rateChunks)
	if len(chs) != rateChunks {
		t.Fatalf("chunks(%d) gave %d chunks", rateChunks, len(chs))
	}
	stalled := chs[1]
	if rate := float64(len(stalled.samples)) / stalled.to.Sub(stalled.from).Seconds(); rate > 50 {
		t.Errorf("stalled chunk rate %v, want the stall charged to it", rate)
	}
	if (window{samples: w.samples[:2*rateChunks-1]}).chunks(rateChunks) != nil {
		t.Error("chunks with fewer than 2k samples should give nil")
	}

	// A monitor that saw the hypervisor take half the CPU during the
	// stall.
	m := &stealMonitor{}
	var total, steal uint64
	for k := 0; k <= int(at/(100*time.Millisecond))+1; k++ {
		tick := start.Add(time.Duration(k) * 100 * time.Millisecond)
		m.ticks = append(m.ticks, stealSample{tick, total, steal})
		total += 20
		if !tick.Before(stalled.from) && tick.Before(stalled.to) {
			steal += 10
		}
	}
	n := len(w.samples)
	for _, tc := range []struct {
		m    *stealMonitor
		n    int
		rate float64
	}{
		{nil, n, float64(n) / at.Seconds()},
		{m, n - len(stalled.samples), 100},
	} {
		samples, rate, note := steadyPart(w, tc.m)
		if len(samples) != tc.n || math.Abs(rate-tc.rate) > 1e-6 {
			t.Errorf("monitor %v: kept %d samples at %v/s (%s), want %d at %v/s", tc.m != nil, len(samples), rate, note, tc.n, tc.rate)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		if q, ok := tailQuantile(tc.n); q != tc.want || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
}

func TestServeStreamIdentical(t *testing.T) {
	a, hotA := serveStream(9, 500)
	b, hotB := serveStream(9, 500)
	hot := map[uint64]bool{}
	for i := range hotA {
		if hotA[i] != hotB[i] {
			t.Fatal("hot sets differ for one seed")
		}
		hot[hotA[i]] = true
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs for one seed", i)
		}
		if hot[a[i]] {
			n++
		}
	}
	if frac := float64(n) / float64(len(a)); frac < 0.7 || frac > 0.8 {
		t.Errorf("hot fraction %.2f, want about %.2f", frac, serveHotFrac)
	}
}
