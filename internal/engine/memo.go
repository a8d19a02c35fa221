package engine

import (
	"context"
	"errors"
	"sync"
)

// memo is an in-memory singleflight map, the memory tier of the result,
// profile and feature caches: the first call for a key computes its
// value, concurrent calls for the same key wait for that computation (or
// their own context), and later calls read the settled value. A failure
// is never kept, so the next call for its key computes afresh. The zero
// value is ready to use.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

// memoEntry is one memo slot; done closes once val and err are settled.
type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do returns key's value, running compute when no call for key has
// settled or is in flight. hit reports that the value came from another
// call's computation. A cancelled ctx ends a wait with ctx.Err(); it
// never stops a computation in flight. A computation that failed on its
// own caller's cancellation or deadline is not the waiters' failure:
// a waiter whose ctx is still live claims the key again (settle has
// dropped the failed slot), computing it or joining whoever did.
func (m *memo[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (val V, hit bool, err error) {
	for {
		ent, claimed := m.claim(key)
		if claimed {
			val, err = compute()
			m.settle(key, ent, val, err)
			return val, false, err
		}
		select {
		case <-ent.done:
			if isContextErr(ent.err) && ctx.Err() == nil {
				continue
			}
			return ent.val, ent.err == nil, ent.err
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
	}
}

// isContextErr reports whether err is a cancellation or deadline.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// claim returns key's slot and whether this call created it. The
// creator must compute the value and settle the slot; every other caller
// waits on it.
func (m *memo[K, V]) claim(key K) (*memoEntry[V], bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent, ok := m.m[key]; ok {
		return ent, false
	}
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	ent := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = ent
	return ent, true
}

// settle records a claimed slot's outcome and releases its waiters. A
// failed slot leaves the map, so the next claim for its key computes
// afresh.
func (m *memo[K, V]) settle(key K, ent *memoEntry[V], val V, err error) {
	ent.val, ent.err = val, err
	if err != nil {
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(ent.done)
}
