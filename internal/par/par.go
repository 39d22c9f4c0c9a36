// Package par runs independent jobs, addressed by index, on every core.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) for every i in [0, n) on min(n, GOMAXPROCS) goroutines
// and returns once every call has returned. The indices are handed out in
// increasing order; after a call fails, no further index is handed out.
// The error returned is that of the smallest failing index. Every index
// below it was handed out before it, so when whether fn(i) fails depends
// on i alone, so does the error, whatever the timing.
//
// fn may write only to what index i owns, such as out[i].
func Do(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var failed atomic.Bool
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
