// Package lockshape seeds the three concurrency shapes generic/lockshape
// flags — mixed atomic/direct field access, read-lock upgrade deadlocks, and
// sync.Pool use-after-Put — next to the disciplined forms it must accept.
// Loaded under example.com/m/cmd/generic-serve by the test; under another
// path the same fixture must stay silent. The mutex copies below are go
// vet's (copylocks reports each of them), so lockshape stays silent there.
package lockshape

import (
	"sync"
	"sync/atomic"
)

type server struct {
	mu      sync.RWMutex
	hits    int64 // accessed both atomically and directly: flagged
	misses  int64 // atomics only: fine
	pending int   // mutex-guarded only: fine
	pool    sync.Pool
}

func (s *server) record() {
	atomic.AddInt64(&s.hits, 1)
	atomic.AddInt64(&s.misses, 1)
}

func (s *server) stats() (int64, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hits, s.pending // want generic/lockshape
}

func (s *server) load() int64 {
	return atomic.LoadInt64(&s.misses) // fine: consistent atomic discipline
}

// reconfigure takes the write lock; calling it under RLock deadlocks.
func (s *server) reconfigure(n int) {
	s.mu.Lock()
	s.pending = n
	s.mu.Unlock()
}

func (s *server) upgradeDeadlock() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.reconfigure(1) // want generic/lockshape
}

func (s *server) directUpgrade() {
	s.mu.RLock()
	s.mu.Lock() // want generic/lockshape
	s.mu.Unlock()
	s.mu.RUnlock()
}

func (s *server) sequentialLocks(n int) {
	s.mu.RLock()
	p := s.pending
	s.mu.RUnlock()
	s.reconfigure(p + n) // fine: the read lock was released first
}

type holder struct {
	srv server
}

func copies(h *holder) server {
	s := h.srv // go vet: assignment copies lock value
	return s   // go vet: return copies lock value
}

func byValue(s server) int { // go vet: passes lock by value
	return s.pending
}

func byPointer(s *server) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pending
}

func rangeCopies(servers []server) int {
	n := 0
	for _, s := range servers { // go vet: range var copies lock
		n += s.pending
	}
	return n
}

type state struct{ n int }

func (s *server) poolReuse() int {
	st := s.pool.Get().(*state)
	n := st.n
	s.pool.Put(st)
	return n + st.n // want generic/lockshape
}

func (s *server) poolClean() int {
	st := s.pool.Get().(*state)
	n := st.n
	s.pool.Put(st)
	st = s.pool.Get().(*state) // fine: reassignment kills the taint
	defer s.pool.Put(st)
	return n + st.n
}
