package main

// Seeded input generation. Every workload's inputs are a pure function
// of --seed; the programs under test receive only the generated inputs.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// c4Position is one Connect-4 midgame: the opening's column string (the
// serve-layer position syntax) and the position it reaches.
type c4Position struct {
	moves string
	pos   *games.Connect4
}

// c4Plies is the length of every c4-analyze opening. All roots share one
// ply count because the engine's table answers a probe with any entry
// at least as deep as wanted: on a table shared across roots of
// different ply counts, one search can reuse a deeper result an earlier
// search stored for the same position, and its value is then no longer
// the fixed-depth value the sequential oracle computes. With equal ply
// counts every position is always searched to the same remaining depth.
const c4Plies = 8

// c4Openings returns n positions reached by random legal openings of
// plies moves, distinct as positions (transposed move orders count
// once) and skipping any that are already decided.
func c4Openings(seed int64, n, plies int) []c4Position {
	r := rand.New(rand.NewSource(seed ^ 0x4334))
	seen := make(map[uint64]bool, n)
	out := make([]c4Position, 0, n)
	for len(out) < n {
		p := games.StandardConnect4()
		var b strings.Builder
		for i := 0; i < plies && p != nil; i++ {
			c := r.Intn(p.W)
			p = p.Drop(c)
			b.WriteByte(byte('0' + c))
		}
		if p == nil || len(p.Moves()) == 0 || seen[p.Hash()] {
			continue
		}
		seen[p.Hash()] = true
		out = append(out, c4Position{moves: b.String(), pos: p})
	}
	return out
}

// pnsInstance is one proof-number workload position with its
// Sprague–Grundy verdict: the side to move wins iff grundy != 0.
type pnsInstance struct {
	name   string
	pos    engine.Position
	grundy int
}

// pnsInstances returns n random nim and kayles positions, alternating,
// sized so a cold parallel solve takes a few to a few tens of ms: five
// nim heaps of 1..5 objects, and kayles with 12 to 14 pins in two to
// four rows. The spaces are small, so instances may repeat; every solve
// is cold, so a repeat costs what the first one did.
func pnsInstances(seed int64, n int) []pnsInstance {
	r := rand.New(rand.NewSource(seed ^ 0x9e5))
	out := make([]pnsInstance, 0, n)
	for len(out) < n {
		var inst pnsInstance
		if len(out)%2 == 0 {
			heaps := make([]int, 5)
			for i := range heaps {
				heaps[i] = 1 + r.Intn(5)
			}
			nim := games.NewNim(heaps...)
			inst = pnsInstance{name: "nim " + intList(heaps), pos: nim, grundy: nim.XorValue()}
		} else {
			rows := make([]int, 2+r.Intn(3))
			total := 12 + r.Intn(3)
			for i := range rows {
				rows[i] = 1
			}
			for k := len(rows); k < total; k++ {
				rows[r.Intn(len(rows))]++
			}
			k := games.NewKayles(rows...)
			inst = pnsInstance{name: "kayles " + intList(rows), pos: k, grundy: k.GrundyValue()}
		}
		out = append(out, inst)
	}
	return out
}

func intList(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

// Serve stream parameters: random-tree roots at a fixed depth, 75% from
// a hot set of 16 keys and 25% fresh.
const (
	serveDepth   = 8
	serveBranch  = 5
	serveHotKeys = 16
	serveHotFrac = 0.75
)

// serveStream returns the first n request roots of the serve workloads'
// stream. serve-local and serve-ring draw the identical stream for a
// seed. The hot set is returned separately for cache warm-up.
func serveStream(seed int64, n int) (stream, hot []uint64) {
	r := rand.New(rand.NewSource(seed ^ 0x5e7e))
	hot = make([]uint64, serveHotKeys)
	for i := range hot {
		hot[i] = r.Uint64()
	}
	stream = make([]uint64, n)
	for i := range stream {
		if r.Float64() < serveHotFrac {
			stream[i] = hot[r.Intn(len(hot))]
		} else {
			stream[i] = r.Uint64()
		}
	}
	return stream, hot
}

// serveBody is the POST /v1/search body for a random-tree root.
func serveBody(root uint64) []byte {
	return []byte(fmt.Sprintf(`{"game":"random","position":"%d","depth":%d}`, root, serveDepth))
}

func randomRoot(root uint64) games.RandomTree { return games.NewRandomTree(root, serveBranch) }
