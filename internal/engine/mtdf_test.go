package engine

import (
	"context"
	"math/rand"
	"testing"
)

// mtdf runs MTDF on a background context, failing the test on error.
func mtdf(t *testing.T, pos Position, depth int, first int32, opt SearchOptions) Result {
	t.Helper()
	r, err := MTDF(context.Background(), pos, depth, first, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMTDFMatchesSearchOnHashedTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		var next uint64
		depth := 2 + rng.Intn(4)
		pos := buildHashed(rng, depth, 3, &next)
		plain := Search(pos, depth)
		for _, guess := range []int32{0, plain.Value, plain.Value + 50, plain.Value - 50} {
			r := mtdf(t, pos, depth, guess, SearchOptions{Table: NewTable(1 << 12)})
			if r.Value != plain.Value {
				t.Fatalf("trial %d guess %d: MTDF %d != search %d", trial, guess, r.Value, plain.Value)
			}
		}
	}
}

func TestMTDFGoodGuessIsCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var next uint64
	depth := 6
	pos := buildHashed(rng, depth, 3, &next)
	plain := Search(pos, depth)
	exact := mtdf(t, pos, depth, plain.Value, SearchOptions{Table: NewTable(1 << 14)})
	far := mtdf(t, pos, depth, plain.Value+1000, SearchOptions{Table: NewTable(1 << 14)})
	if exact.Value != plain.Value || far.Value != plain.Value {
		t.Fatal("wrong values")
	}
	if exact.Nodes > far.Nodes {
		t.Errorf("exact guess used %d nodes, far guess %d — guess quality should pay",
			exact.Nodes, far.Nodes)
	}
}

func TestMTDFWithoutTable(t *testing.T) {
	// A nil table allocates an internal one; correctness unaffected.
	rng := rand.New(rand.NewSource(3))
	var next uint64
	pos := buildHashed(rng, 4, 3, &next)
	plain := Search(pos, 4)
	if r := mtdf(t, pos, 4, 0, SearchOptions{}); r.Value != plain.Value {
		t.Errorf("MTDF %d != %d", r.Value, plain.Value)
	}
}

func TestMTDFTerminal(t *testing.T) {
	leaf := &treePos{val: 5}
	if r := mtdf(t, leaf, 4, 0, SearchOptions{}); r.Value != 5 {
		t.Errorf("terminal: %+v", r)
	}
}
