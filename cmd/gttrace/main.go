// Command gttrace prints a step-by-step execution of Parallel SOLVE,
// showing the base path, its Proposition 3 code, and the leaves evaluated
// at every step, plus a Gantt-style evaluation timeline. It makes the
// paper's counting argument visible on real instances.
//
// Usage:
//
//	gttrace -d 2 -n 5 -width 1 -instance worst
//	gttrace -d 2 -n 6 -width 1 -instance iid -seed 7 -tree
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gametree"
	"gametree/internal/core"
	"gametree/internal/trace"
	"gametree/internal/tree"
)

func main() {
	var (
		d        = flag.Int("d", 2, "branching factor")
		n        = flag.Int("n", 5, "tree height")
		width    = flag.Int("width", 1, "pruning-number width")
		instance = flag.String("instance", "worst", "worst, best or iid")
		bias     = flag.Float64("bias", -1, "i.i.d. bias (-1 = stationary/hardest)")
		seed     = flag.Int64("seed", 1, "seed for iid instances")
		showTree = flag.Bool("tree", false, "also print the tree with evaluated leaves marked")
		maxCols  = flag.Int("cols", 120, "timeline column limit (0 = unlimited)")
		frames   = flag.String("frames", "", "directory to write per-step Graphviz DOT frames")
	)
	flag.Parse()
	if err := run(*d, *n, *width, *instance, *bias, *seed, *showTree, *maxCols, *frames); err != nil {
		fmt.Fprintln(os.Stderr, "gttrace:", err)
		os.Exit(1)
	}
}

func run(d, n, width int, instance string, bias float64, seed int64, showTree bool, maxCols int, frames string) error {
	if bias < 0 {
		bias = gametree.StationaryBias(d)
	}
	var t *tree.Tree
	switch instance {
	case "worst":
		t = gametree.WorstCaseNOR(d, n, 1)
	case "best":
		t = gametree.BestCaseNOR(d, n, 1)
	case "iid":
		t = gametree.IIDNor(d, n, bias, seed)
	default:
		return fmt.Errorf("unknown instance %q", instance)
	}
	fmt.Printf("instance: %s, value %d\n\n", t, t.Evaluate())

	steps, m, err := core.TraceParallelSolve(t, width, core.Options{})
	if err != nil {
		return err
	}
	if err := trace.WriteSteps(os.Stdout, t, steps); err != nil {
		return err
	}
	fmt.Println()
	if err := trace.WriteTimeline(os.Stdout, t, steps, maxCols); err != nil {
		return err
	}
	fmt.Printf("\n%s\n", trace.Summarize(steps))
	fmt.Printf("metrics: %s\n", m)

	if frames != "" {
		if err := os.MkdirAll(frames, 0o755); err != nil {
			return err
		}
		err := trace.WriteDOTFrames(t, steps, func(step int) (io.WriteCloser, error) {
			return os.Create(filepath.Join(frames, fmt.Sprintf("step%03d.dot", step+1)))
		})
		if err != nil {
			return err
		}
		fmt.Printf("wrote %d DOT frames to %s\n", len(steps), frames)
	}

	if showTree {
		evaluated := map[tree.NodeID]bool{}
		for _, st := range steps {
			for _, l := range st.Leaves {
				evaluated[l] = true
			}
		}
		fmt.Println()
		if err := trace.WriteTree(os.Stdout, t, evaluated); err != nil {
			return err
		}
	}
	return nil
}
