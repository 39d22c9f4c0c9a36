// Package lockorder is golden input for lock-contract's lock order check.
package lockorder

import "sync"

// The declared order mirrors the broker's write-ahead contract.
//
//lint:lockorder jmu < mu

// Ledger carries a journal lock that must always be taken first.
type Ledger struct {
	jmu sync.Mutex
	mu  sync.RWMutex
}

// Good acquires in the declared order.
func (l *Ledger) Good() {
	l.jmu.Lock()
	defer l.jmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
}

// Bad acquires against it.
func (l *Ledger) Bad() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jmu.Lock() // want lock-contract
	l.jmu.Unlock()
}

// BranchBad holds mu on only one incoming path; acquiring jmu is still a
// deadlock risk on that path, so may-join flags it.
func (l *Ledger) BranchBad(b bool) {
	if b {
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	l.jmu.Lock() // want lock-contract
	l.jmu.Unlock()
}

// BranchGood may hold jmu when mu is taken — that is the declared order.
func (l *Ledger) BranchGood(b bool) {
	if b {
		l.jmu.Lock()
		defer l.jmu.Unlock()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
}

// Sequential releases the first lock before taking the second, so no
// ordering applies.
func (l *Ledger) Sequential() {
	l.mu.Lock()
	l.mu.Unlock()
	l.jmu.Lock()
	l.jmu.Unlock()
}

// ReadSide applies to read locks too: mu held as RLock still orders a
// later jmu acquisition against the declaration.
func (l *Ledger) ReadSide() {
	l.mu.RLock()
	defer l.mu.RUnlock()
	l.jmu.Lock() // want lock-contract
	l.jmu.Unlock()
}

//lint:lockorder mu < // want lock-contract
