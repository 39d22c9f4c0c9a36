// Package unlockpath is golden input for lock-contract's exit check.
package unlockpath

import "sync"

// Box is a minimal locked container.
type Box struct {
	mu sync.Mutex
	n  int
}

// Deferred is the canonical safe shape.
func (b *Box) Deferred() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// Manual releases on every path, so staying manual is fine.
func (b *Box) Manual(early bool) int {
	b.mu.Lock()
	if early {
		b.mu.Unlock()
		return 0
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// EarlyReturn forgets the unlock on the error path.
func (b *Box) EarlyReturn(bad bool) int {
	b.mu.Lock()
	if bad {
		return -1 // want lock-contract
	}
	n := b.n
	b.mu.Unlock()
	return n
}

// PanicPath leaves the lock held when it panics: a manual unlock does
// not run during a panic.
func (b *Box) PanicPath(bad bool) {
	b.mu.Lock()
	if bad {
		panic("bad") // want lock-contract
	}
	b.mu.Unlock()
}

// DeferredPanic is safe — the deferred unlock runs while panicking.
func (b *Box) DeferredPanic(bad bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if bad {
		panic("bad")
	}
}

// LoopHandoff acquires and releases per iteration; the implicit return
// at the end is clean.
func (b *Box) LoopHandoff(rounds int) {
	for i := 0; i < rounds; i++ {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	}
}

// SwitchLeak releases in only some cases.
func (b *Box) SwitchLeak(k int) int {
	b.mu.Lock()
	switch k {
	case 0:
		b.mu.Unlock()
		return 0
	case 1:
		return 1 // want lock-contract
	}
	b.mu.Unlock()
	return 2
}

// FallsOffEnd ends the function with the lock still held.
func (b *Box) FallsOffEnd() {
	b.mu.Lock()
	b.n++
} // want lock-contract
