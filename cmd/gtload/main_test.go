package main

import (
	"context"
	"testing"
)

// statusIssuer answers every request with a fixed status.
type statusIssuer int

func (s statusIssuer) issue(context.Context, string) outcome { return outcome{status: int(s)} }

// TestCountersSeparateCutoffs: requests cut off by the run window count
// as in flight, not as errors; every settled non-200 is an error in its
// own field.
func TestCountersSeparateCutoffs(t *testing.T) {
	cfg := config{game: "ttt"}
	w := newWorkload(cfg)
	var c counters
	live := context.Background()
	for _, status := range []int{200, 200, 200, 429, 503, 504, 500} {
		one(live, cfg, w, statusIssuer(status), &c)
	}
	ended, cancel := context.WithCancel(live)
	cancel()
	// A cut-off request surfaces as a transport error (HTTP) or as a
	// 504 from an in-process search whose ctx expired.
	for _, status := range []int{500, 504, 500} {
		one(ended, cfg, w, statusIssuer(status), &c)
	}
	for name, got := range map[string]int64{
		"issued": c.issued.Load(), "completed": c.completed.Load(),
		"shed_429": c.shed429.Load(), "shed_503": c.shed503.Load(),
		"timeout_504": c.timeout.Load(), "failed": c.failed.Load(),
		"in_flight": c.inFlight.Load(),
	} {
		want := map[string]int64{
			"issued": 10, "completed": 3, "shed_429": 1, "shed_503": 1,
			"timeout_504": 1, "failed": 1, "in_flight": 3,
		}[name]
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got, want := c.errRate(), 4.0/7.0; got != want {
		t.Errorf("err_rate = %v, want %v (4 errors of 7 settled)", got, want)
	}
	var idle counters
	if idle.errRate() != 0 {
		t.Error("err_rate of an empty run must be 0")
	}
}
