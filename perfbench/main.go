// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points, checks every
// answer against an oracle computed outside the timed window, and prints
// every metric by name with its unit, then one JSON result object as the
// last line of standard output.
//
//	bash perfbench/run.sh --workload c4-analyze --seed 1 --seconds 10 --trace 0
//
// Workloads (see BENCHMARK.json for why each is included):
//
//	c4-analyze   closed loop, one caller: Connect-4 midgames searched to a
//	             fixed depth on a resident engine.Pool with its table. Not
//	             listed in BENCHMARK.json: on a shared 2-vCPU host its
//	             ops_per_s moved with the host's CPU speed, by up to a
//	             quarter of the median across ten runs of the same code.
//	             Every traced run still replays its layer ladder.
//	pns-solve    closed loop, one caller: cold nim and kayles solves with
//	             pns.(*Solver).SolveParallel on a resident pool
//	serve-local  open loop at fixed rates: /v1/search random-tree roots
//	             against an in-process serve.Server over loopback HTTP
//	serve-ring   the identical request stream, with a shard coordinator
//	             and two in-process workers as the server's Backend
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays a fixed sample of operations down each layer ladder with
// spans on, prints the per-layer metrics and writes one Chrome trace
// under .bench_build/traces. A wrong answer prints MISMATCH lines, marks
// the result incorrect and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	nproc    int
	root     string // checkout root: traces go under root/.bench_build
}

// window returns frac of the run's measuring time.
func (c config) window(frac float64) time.Duration {
	return time.Duration(frac * c.seconds * float64(time.Second))
}

// workload runs one named workload, end to end or traced.
type workload struct {
	e2e    func(config) (*report, error)
	traced func(config) (*report, error)
}

var workloads = map[string]workload{
	"c4-analyze": {
		e2e: func(cfg config) (*report, error) {
			wl := newC4(cfg.seed)
			return runClosedE2E(cfg, wl, func(r *report, idxs []int) { wl.check(r, idxs, cfg.nproc) })
		},
		traced: func(cfg config) (*report, error) { return runTraced(cfg, c4Overhead) },
	},
	"pns-solve": {
		e2e: func(cfg config) (*report, error) {
			wl := newPNS(cfg.seed)
			return runClosedE2E(cfg, wl, wl.check)
		},
		traced: func(cfg config) (*report, error) { return runTraced(cfg, pnsOverhead) },
	},
	"serve-local": {
		e2e:    func(cfg config) (*report, error) { return runServeE2E(cfg, false) },
		traced: func(cfg config) (*report, error) { return runTraced(cfg, serveOverhead(false)) },
	},
	"serve-ring": {
		e2e:    func(cfg config) (*report, error) { return runServeE2E(cfg, true) },
		traced: func(cfg config) (*report, error) { return runTraced(cfg, serveOverhead(true)) },
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: c4-analyze, pns-solve, serve-local or serve-ring")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measuring time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced layer ladder")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		keys := make([]string, 0, len(workloads))
		for k := range workloads {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0 or 1\n", keys)
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, nproc: runtime.GOMAXPROCS(0), root: root}
	host := probeHost(root)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)
	fmt.Fprintf(stdout, "run workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)

	runFn := wl.e2e
	if *trace == 1 {
		runFn = wl.traced
	}
	total0, steal0, ticksOK := cpuTicks()
	rep, err := runFn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if total1, steal1, ok := cpuTicks(); ticksOK && ok && total1 > total0 {
		rep.addInfo("host.steal_share", "ratio", float64(steal1-steal0)/float64(total1-total0), "CPU time the hypervisor gave elsewhere during the run")
	}
	if err := rep.write(stdout, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		fmt.Fprintf(stderr, "perfbench: %d oracle mismatches\n", len(rep.mismatches))
		return 1
	}
	return 0
}
