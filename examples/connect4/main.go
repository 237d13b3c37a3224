// Connect-4 example: the practical face of the paper's cascade idea. The
// engine searches the standard 7x6 board with sequential alpha-beta and
// with the parallel cascade (leftmost successor first, speculative
// siblings in goroutines), and reports the wall-clock speedup on this
// machine. It also verifies the engine against Nim's closed-form theory.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"gametree"
)

func main() {
	pos := gametree.StandardConnect4()
	const depth = 9

	fmt.Printf("Connect-4 7x6, search depth %d, GOMAXPROCS %d\n\n", depth, runtime.GOMAXPROCS(0))

	start := time.Now()
	seq := gametree.Search(pos, depth)
	seqTime := time.Since(start)
	fmt.Printf("sequential: value %d, %d nodes, %s\n", seq.Value, seq.Nodes, seqTime.Round(time.Millisecond))

	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		start = time.Now()
		par, err := gametree.SearchParallel(context.Background(), pos, depth, gametree.EngineOptions{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		if par.Value != seq.Value {
			log.Fatalf("parallel value %d != sequential %d", par.Value, seq.Value)
		}
		fmt.Printf("parallel %2d workers: %d nodes, %s (%.2fx)\n",
			workers, par.Nodes, el.Round(time.Millisecond), float64(seqTime)/float64(el))
	}

	// Best opening move for the first player.
	best, err := gametree.Play(context.Background(), pos, depth, 0)
	if err != nil {
		log.Fatal(err)
	}
	col := pos.Moves()[best].(*gametree.Connect4).LastCol
	fmt.Printf("\nengine's opening move: column %d (center-first ordering pays, as the\n"+
		"paper's left-to-right semantics predict)\n", col)

	// Nim sanity check: the engine must reproduce the xor rule.
	fmt.Println("\nNim cross-check (engine vs Sprague-Grundy xor rule):")
	for _, heaps := range [][]int{{1, 2, 3}, {1, 1}, {4, 2, 6}, {3, 3}} {
		nim := gametree.NewNim(heaps...)
		r := gametree.Search(nim, nim.TotalObjects())
		engineWin := r.Value > 0
		xorWin := nim.XorValue() != 0
		status := "ok"
		if engineWin != xorWin {
			status = "MISMATCH"
		}
		fmt.Printf("  %v: engine win=%v, xor win=%v  %s\n", heaps, engineWin, xorWin, status)
	}
}
