//go:build race

package serve

// raceBuild: the race detector adds allocations, so allocation bounds
// hold only without it.
const raceBuild = true
