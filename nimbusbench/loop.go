package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// rec is one timed request. Lat is measured from the request's start in a
// closed loop and from its due time in an open loop.
type rec struct {
	Kind opKind
	At   time.Duration // start (closed loop) or due time (open loop), from the phase start
	Lat  time.Duration
	Err  error
	// Shape is the palette index of a list cycle's dataset; 0 elsewhere.
	Shape int
}

// closedLoop runs conns workers until length has elapsed or ctx is done;
// each worker sends its next request only after the previous one
// answered. next returns worker w's next request; exec performs it.
func closedLoop(ctx context.Context, conns int, length time.Duration, next func(w int) op, exec func(op) error) []rec {
	start := time.Now()
	deadline := start.Add(length)
	out := make([][]rec, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) || ctx.Err() != nil {
					return
				}
				o := next(w)
				err := exec(o)
				out[w] = append(out[w], rec{Kind: o.Kind, At: t0.Sub(start), Lat: time.Since(t0), Err: err})
				if errors.Is(err, errCheck) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	var all []rec
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// countedLoop is closedLoop bounded by a number of requests instead of a
// length: the conns workers share n requests between them. They stop
// early at the first failure or when ctx is done.
func countedLoop(ctx context.Context, conns, n int, next func(w int) op, exec func(op) error) []rec {
	start := time.Now()
	var issued atomic.Int64
	var failed atomic.Bool
	out := make([][]rec, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil && issued.Add(1) <= int64(n) {
				t0 := time.Now()
				o := next(w)
				err := exec(o)
				out[w] = append(out[w], rec{Kind: o.Kind, At: t0.Sub(start), Lat: time.Since(t0), Err: err})
				if err != nil {
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	var all []rec
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// openLoop sends each arrival at its due time on one of conns
// connections, whether or not earlier requests have answered. A request
// that finds every connection busy waits, and that wait is part of its
// latency: latency runs from the due time, not from the send. lateness
// reports how far behind schedule the dispatcher itself handed each
// request over. When ctx is done the remaining arrivals are dropped.
func openLoop(ctx context.Context, conns int, sched []arrival, exec func(op) error) (recs []rec, lateness []time.Duration) {
	type job struct {
		idx int
		due time.Time
	}
	// Sized to the number of sends: the dispatcher never blocks, so a
	// stalled server cannot slow the schedule down.
	jobs := make(chan job, len(sched))
	recs = make([]rec, 0, len(sched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := sched[j.idx].Op
				err := exec(o)
				r := rec{Kind: o.Kind, At: sched[j.idx].Due, Lat: time.Since(j.due), Err: err}
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
			}
		}()
	}
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
dispatch:
	for i, a := range sched {
		due := start.Add(a.Due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		lateness = append(lateness, time.Since(due))
		jobs <- job{idx: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return recs, lateness
}
