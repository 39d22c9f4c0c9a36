// Package mutexguard is golden input for lock-contract's guarded-field and //lint:holds checks.
package mutexguard

import "sync"

// Counter declares its guard contracts the way the production tree does.
type Counter struct {
	mu sync.RWMutex
	n  int // guarded by mu
	// name is also protected, via the doc-comment form.
	// guarded by mu
	name string
}

// Good holds the lock on every path.
func (c *Counter) Good() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Bare touches the field with no lock at all.
func (c *Counter) Bare() {
	c.n++ // want lock-contract
}

// OneBranch locks on only one path, so the access after the join is not
// protected on every path.
func (c *Counter) OneBranch(lock bool) {
	if lock {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.n++ // want lock-contract
}

// ReadUnderRLock is enough for a read.
func (c *Counter) ReadUnderRLock() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.n
}

// WriteUnderRLock is not enough for a write.
func (c *Counter) WriteUnderRLock() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.name = "x" // want lock-contract
}

// AfterRelease reads on the early path after the manual unlock.
func (c *Counter) AfterRelease(early bool) int {
	c.mu.Lock()
	if early {
		c.mu.Unlock()
		return c.n // want lock-contract
	}
	defer c.mu.Unlock()
	return c.n
}

// LoopLocked reacquires per iteration; every access is covered.
func (c *Counter) LoopLocked(rounds int) {
	for i := 0; i < rounds; i++ {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}

// bump documents that its caller holds mu; its own access is clean and
// the obligation moves to the call sites.
//
//lint:holds mu
func (c *Counter) bump() { c.n++ }

// GoodCaller satisfies the helper's contract.
func (c *Counter) GoodCaller() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bump()
}

// BadCaller calls the helper without the lock.
func (c *Counter) BadCaller() {
	c.bump() // want lock-contract
}

// Spawned is a goroutine body: it cannot inherit the enclosing critical
// section, so the unlocked access inside the literal is a race.
func (c *Counter) Spawned() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.n++ // want lock-contract
	}()
}
