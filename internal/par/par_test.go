package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		calls := make([]atomic.Int32, n)
		if err := Do(n, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d called %d times", n, i, got)
			}
		}
	}
}

func TestDoReturnsSmallestFailingIndex(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	// Index 3 fails only after index 13 has failed, so the smallest
	// failing index is the last to fail.
	later := make(chan struct{})
	err := Do(40, func(i int) error {
		switch i {
		case 3:
			<-later
			return fmt.Errorf("job %d", i)
		case 13:
			close(later)
			return fmt.Errorf("job %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 3" {
		t.Fatalf("error %v, want job 3", err)
	}
}

func TestDoBoundsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var running atomic.Int32
	block := make(chan struct{})
	done := make(chan error)
	go func() {
		done <- Do(12, func(int) error {
			if r := running.Add(1); r > 3 {
				t.Errorf("%d jobs running at once under GOMAXPROCS 3", r)
			}
			<-block
			running.Add(-1)
			return nil
		})
	}()
	for running.Load() < 3 {
		runtime.Gosched()
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDoStopsHandingOutAfterAFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var calls atomic.Int32
	boom := errors.New("boom")
	err := Do(10, func(i int) error {
		calls.Add(1)
		if i == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error %v", err)
	}
	// One worker: indices 0..2 run, and at most the one index already
	// waiting in the hand-out is run after the failure.
	if got := calls.Load(); got > 4 {
		t.Fatalf("%d calls after index 2 failed", got)
	}
}
