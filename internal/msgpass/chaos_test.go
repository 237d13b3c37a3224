package msgpass

import (
	"fmt"
	"testing"
	"time"

	"gametree/internal/faultnet"
	"gametree/internal/tree"
)

// Fast protocol knobs for tests: real defaults are tuned for human-scale
// runs; the suite wants death detection and retransmission to fit in a
// CI budget.
func chaosProtocol() ProtocolConfig {
	return ProtocolConfig{
		HeartbeatEvery:  time.Millisecond,
		DeadAfter:       15 * time.Millisecond,
		RetransmitAfter: time.Millisecond,
		RetransmitMax:   8 * time.Millisecond,
	}
}

// chaosScenario is one fault mix of the regression matrix.
type chaosScenario struct {
	name string
	cfg  func(seed int64) faultnet.Config
	// depth/work size the tree so the run is still alive when scheduled
	// faults fire.
	depth int
	work  int
	// wantDeaths requires the crash-recovery path to have actually run.
	wantDeaths bool
}

func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			name:  "drop10",
			cfg:   func(seed int64) faultnet.Config { return faultnet.Config{Seed: seed, Drop: 0.1} },
			depth: 8,
			work:  5000,
		},
		{
			name:  "drop30",
			cfg:   func(seed int64) faultnet.Config { return faultnet.Config{Seed: seed, Drop: 0.3} },
			depth: 7,
			work:  5000,
		},
		{
			name:  "dup",
			cfg:   func(seed int64) faultnet.Config { return faultnet.Config{Seed: seed, Dup: 0.3} },
			depth: 8,
			work:  5000,
		},
		{
			name: "delay",
			cfg: func(seed int64) faultnet.Config {
				return faultnet.Config{Seed: seed, Delay: 0.5, DelayMax: time.Millisecond}
			},
			depth: 8,
			work:  5000,
		},
		{
			name: "reorder",
			cfg: func(seed int64) faultnet.Config {
				return faultnet.Config{Seed: seed, Reorder: 0.3, DelayMax: time.Millisecond}
			},
			depth: 8,
			work:  5000,
		},
		{
			name: "combo",
			cfg: func(seed int64) faultnet.Config {
				return faultnet.Config{
					Seed: seed, Drop: 0.15, Dup: 0.1, Reorder: 0.1,
					Delay: 0.2, DelayMax: time.Millisecond,
				}
			},
			depth: 7,
			work:  5000,
		},
		{
			// Processor 1 owns level 1, so the root's value must come
			// through it. It sends roughly 8-12 packets to other
			// processors over a whole run; crashing it at its 3rd — a
			// point in the protocol, not on the clock — leaves it holding
			// its level-1 invocations, so the run can only finish once the
			// death is declared and the levels are adopted, however fast
			// the host.
			name: "crash",
			cfg: func(seed int64) faultnet.Config {
				return faultnet.Config{
					Seed: seed, Drop: 0.05,
					Crashes: []faultnet.ProcCrash{{Proc: 1, AfterSends: 3}},
				}
			},
			depth:      10,
			work:       30000,
			wantDeaths: true,
		},
		{
			// Stall shorter than DeadAfter: the processor freezes and
			// resumes; no death should be needed for a correct result.
			name: "stall-short",
			cfg: func(seed int64) faultnet.Config {
				return faultnet.Config{
					Seed:   seed,
					Stalls: []faultnet.ProcStall{{Proc: 1, At: 2 * time.Millisecond, For: 5 * time.Millisecond}},
				}
			},
			depth: 9,
			work:  5000,
		},
		{
			// Stall far past DeadAfter: a false-positive death. The stalled
			// processor is fenced when it wakes; the adopter carries its
			// levels. This is the hardest scenario — two processors both
			// believing they own a level is the classic split-brain.
			name: "stall-dead",
			cfg: func(seed int64) faultnet.Config {
				return faultnet.Config{
					Seed:   seed,
					Stalls: []faultnet.ProcStall{{Proc: 1, At: 2 * time.Millisecond, For: 80 * time.Millisecond}},
				}
			},
			depth:      10,
			work:       30000,
			wantDeaths: true,
		},
	}
}

// runChaos evaluates one tree over one faulty network with a watchdog.
func runChaos(t *testing.T, tr *tree.Tree, opt Options, timeout time.Duration) Metrics {
	t.Helper()
	type res struct {
		m   Metrics
		err error
	}
	ch := make(chan res, 1)
	go func() {
		m, err := Evaluate(tr, opt)
		ch <- res{m, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Evaluate: %v", r.err)
		}
		return r.m
	case <-time.After(timeout):
		t.Fatalf("watchdog: run did not terminate within %v", timeout)
		return Metrics{}
	}
}

// TestChaosMatrix is the acceptance gate of the fault injection work:
// every scenario × seed must return exactly the fault-free root value and
// terminate. Values are deterministic per node, so any liveness bug shows
// up as a watchdog timeout and any safety bug as a wrong root value.
func TestChaosMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range chaosScenarios() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				tr := tree.IIDNor(2, sc.depth, 0.5, seed)
				want := tr.Evaluate()
				cfg := sc.cfg(seed)
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				m := runChaos(t, tr, Options{
					Processors:       4,
					WorkPerExpansion: sc.work,
					Net:              faultnet.NewInjector(cfg),
					Protocol:         chaosProtocol(),
				}, 2*time.Minute)
				if m.Value != want {
					t.Fatalf("root value %d under %s faults, want %d (protocol %+v, net %v)",
						m.Value, sc.name, want, m.Protocol, m.Net)
				}
				if sc.wantDeaths && m.Protocol.Deaths == 0 {
					t.Fatalf("scenario %s expected at least one declared death; protocol %+v net %v",
						sc.name, m.Protocol, m.Net)
				}
			})
		}
	}
}

// TestChaosDropForcesRetransmits pins that the loss scenarios exercise
// the ack/retransmit path rather than passing vacuously.
func TestChaosDropForcesRetransmits(t *testing.T) {
	// WorstCaseNOR forces full exploration and the synthetic work keeps
	// the run alive across many retransmit windows, so drops cannot all
	// land on redundant traffic.
	tr := tree.WorstCaseNOR(2, 10, 1)
	want := tr.Evaluate()
	m := runChaos(t, tr, Options{
		Processors:       4,
		WorkPerExpansion: 20000,
		Net:              faultnet.NewInjector(faultnet.Config{Seed: 42, Drop: 0.3}),
		Protocol:         chaosProtocol(),
	}, 2*time.Minute)
	if m.Value != want {
		t.Fatalf("root value %d, want %d", m.Value, want)
	}
	if m.Protocol.Retransmits == 0 {
		t.Fatalf("30%% drop produced zero retransmits: %+v (net %v)", m.Protocol, m.Net)
	}
	if m.Net.Dropped == 0 {
		t.Fatalf("injector dropped nothing: %v", m.Net)
	}
}

// TestChaosDupIsFree checks the claim that the pre-emption rule plus
// sequence-number dedup make duplicate delivery harmless: a heavy-dup run
// returns the right value and the duplicates are visibly suppressed.
func TestChaosDupIsFree(t *testing.T) {
	tr := tree.IIDNor(2, 8, 0.5, 7)
	want := tr.Evaluate()
	m := runChaos(t, tr, Options{
		Processors: 4,
		Net:        faultnet.NewInjector(faultnet.Config{Seed: 7, Dup: 0.5}),
		Protocol:   chaosProtocol(),
	}, 2*time.Minute)
	if m.Value != want {
		t.Fatalf("root value %d, want %d", m.Value, want)
	}
	if m.Net.Duplicated == 0 {
		t.Fatalf("injector duplicated nothing: %v", m.Net)
	}
	if m.Protocol.DupDropped == 0 {
		t.Fatalf("transport deduplicated nothing despite %d duplicates", m.Net.Duplicated)
	}
}

// TestProtocolOverPerfectNet runs the full reliability protocol with no
// faults at all: the result must match, and nothing may deadlock. (Spurious
// retransmits are allowed — an ack can simply be slower than the timeout —
// but no processor may die.)
func TestProtocolOverPerfectNet(t *testing.T) {
	for _, n := range []int{4, 8, 10} {
		// Work keeps the depth-10 run alive long enough that heartbeats
		// demonstrably flow; the shallow runs end before the first beat.
		work := 0
		if n == 10 {
			work = 20000
		}
		tr := tree.IIDNor(2, n, 0.5, int64(n))
		want := tr.Evaluate()
		m := runChaos(t, tr, Options{
			Processors:       3,
			WorkPerExpansion: work,
			Net:              faultnet.NewPerfect(),
			Protocol:         chaosProtocol(),
		}, time.Minute)
		if m.Value != want {
			t.Fatalf("depth %d: root value %d, want %d", n, m.Value, want)
		}
		if m.Protocol.Deaths != 0 {
			t.Fatalf("depth %d: declared %d deaths on a perfect network", n, m.Protocol.Deaths)
		}
		if n == 10 && m.Protocol.Heartbeats == 0 {
			t.Fatalf("depth %d: protocol emitted no heartbeats", n)
		}
	}
}

// TestPerfectPathUntouched pins the zero-overhead contract: with Net nil
// the run must report no protocol traffic at all.
func TestPerfectPathUntouched(t *testing.T) {
	tr := tree.IIDNor(2, 8, 0.5, 3)
	m, err := Evaluate(tr, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Protocol != (ProtocolStats{}) {
		t.Fatalf("nil-Net run reported protocol traffic: %+v", m.Protocol)
	}
	if m.Net != (faultnet.Stats{}) {
		t.Fatalf("nil-Net run reported network stats: %v", m.Net)
	}
	if m.Value != tr.Evaluate() {
		t.Fatalf("root value %d, want %d", m.Value, tr.Evaluate())
	}
}
