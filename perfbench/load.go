package main

// The load generators. Both take the operation as a function of its
// index in the workload's input stream and return raw samples; the
// workloads turn samples into metrics.
//
// closedLoop is one caller that sends the next operation only after the
// previous one returned. openLoop sends on a fixed schedule through at
// most conns concurrent senders and times every request from its *due*
// time, so a stall in the system (or in the generator) is charged to
// every request that came due while it lasted. Requests still running
// when a window closes are counted as in flight, never as failures.

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation.
type sample struct {
	idx  int           // index in the input stream
	lat  time.Duration // due (open loop) or send (closed loop) to completion
	late time.Duration // how late the generator sent it
	done time.Duration // window start to completion
	err  error
}

// window is the outcome of one timed window of a load generator.
type window struct {
	samples  []sample      // operations that completed inside the window
	inFlight int           // sent, but still running when the window closed
	backlog  int           // came due inside the window but were never sent
	start    time.Time     // when the window opened
	elapsed  time.Duration // start to close (closed loop) or to the last completion (open loop)
	next     int           // first stream index not used by this window
}

// latenciesMs returns the completed operations' latencies in ms; a failed
// operation counts as +Inf, so it misses any latency limit.
func (w window) latenciesMs() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = ms(s.lat)
		if s.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

func (w window) failed() int {
	n := 0
	for _, s := range w.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// chunk is a run of consecutive completions in a window.
type chunk struct {
	samples []sample
	// from is the previous chunk's last completion (the window start for
	// the first chunk), to this chunk's last.
	from, to time.Time
}

// chunks cuts the completed operations, in completion order, into k runs
// of equal count. It returns nil when there are fewer than 2k samples.
func (w window) chunks(k int) []chunk {
	n := len(w.samples)
	if k < 1 || n < 2*k {
		return nil
	}
	s := append([]sample(nil), w.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].done < s[j].done })
	out := make([]chunk, 0, k)
	from := w.start
	for j := 1; j <= k; j++ {
		c := chunk{samples: s[(j-1)*n/k : j*n/k], from: from}
		c.to = w.start.Add(c.samples[len(c.samples)-1].done)
		if c.to.After(from) {
			out = append(out, c)
		}
		from = c.to
	}
	return out
}

func (w window) lateMs() []float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = ms(s.late)
	}
	return out
}

// closedLoop runs op(first), op(first+1), ... back to back on the calling
// goroutine for d. The operation running when d expires finishes but is
// reported as in flight. late is the gap between one operation returning
// and the next being sent: the generator's own overhead.
func closedLoop(d time.Duration, first int, op func(idx int) error) window {
	start := time.Now()
	end := start.Add(d)
	prev := start
	w := window{start: start, next: first}
	for i := first; ; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			w.next = i
			break
		}
		err := op(i)
		t1 := time.Now()
		if t1.After(end) {
			w.inFlight++
			w.next = i + 1
			break
		}
		w.samples = append(w.samples, sample{idx: i, lat: t1.Sub(t0), late: t0.Sub(prev), done: t1.Sub(start), err: err})
		prev = t1
	}
	w.elapsed = time.Since(start)
	return w
}

// openLoop sends operations first, first+1, ... at rate per second for d,
// through conns concurrent senders. Request k is due at start + k/rate;
// a sender that is busy when a request comes due sends it late, and the
// lateness is part of its latency. Requests due after d are not sent.
// openLoop returns once every sent request has completed; those that
// completed after d are in flight, not samples. The window's elapsed time
// runs to the last completion inside it.
func openLoop(rate float64, d time.Duration, conns, first int, op func(idx int) error) window {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(rate * d.Seconds())
	start := time.Now()
	end := start.Add(d)
	var (
		next     atomic.Int64
		mu       sync.Mutex
		samples  []sample
		inFlight int
		backlog  int
		lastDone time.Time
		wg       sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				if sent.After(end) {
					mu.Lock()
					backlog++
					mu.Unlock()
					continue
				}
				err := op(first + k)
				done := time.Now()
				mu.Lock()
				if done.After(end) {
					inFlight++
				} else {
					samples = append(samples, sample{idx: first + k, lat: done.Sub(due), late: sent.Sub(due), done: done.Sub(start), err: err})
					if done.After(lastDone) {
						lastDone = done
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := d
	if len(samples) > 0 {
		elapsed = lastDone.Sub(start)
	}
	return window{start: start, samples: samples, inFlight: inFlight, backlog: backlog, elapsed: elapsed, next: first + total}
}
