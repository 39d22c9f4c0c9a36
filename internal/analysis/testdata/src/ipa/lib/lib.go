// Package lib declares the lock contracts for the interprocedural
// golden: a //lint:holds helper and a //lint:lockorder declaration,
// both of which the sibling app package must honor.
package lib

import "sync"

// Store guards a map with an exported mutex so cross-package callers
// can enter its critical section.
type Store struct {
	Mu   sync.Mutex
	data map[string]int
}

// MustGet reads without locking.
//
//lint:holds Mu
func (s *Store) MustGet(k string) int { return s.data[k] }

// Get is a same-package call site that holds Mu, so lock-contract
// stays silent about it.
func (s *Store) Get(k string) int {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.MustGet(k)
}

//lint:lockorder Amu < Bmu

// Pair carries two ordered locks.
type Pair struct {
	Amu sync.Mutex
	Bmu sync.Mutex
}

// GrabA returns holding the lock the order says must come first.
func (p *Pair) GrabA() { p.Amu.Lock() } // want lock-contract

// ReleaseA undoes GrabA.
func (p *Pair) ReleaseA() { p.Amu.Unlock() }
