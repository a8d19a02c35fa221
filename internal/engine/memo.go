package engine

import (
	"context"
	"sync"
)

// memo is an in-memory singleflight map, the memory tier of the profile
// and feature caches: the first call for a key computes its value,
// concurrent calls for the same key wait for that computation (or their
// own context), and later calls read the settled value. A failure is
// never kept, so the next call for its key computes afresh. The zero
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
// never stops a computation in flight.
func (m *memo[K, V]) do(ctx context.Context, key K, compute func() (V, error)) (val V, hit bool, err error) {
	m.mu.Lock()
	if ent, ok := m.m[key]; ok {
		m.mu.Unlock()
		select {
		case <-ent.done:
			return ent.val, ent.err == nil, ent.err
		case <-ctx.Done():
			return val, false, ctx.Err()
		}
	}
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	ent := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = ent
	m.mu.Unlock()

	ent.val, ent.err = compute()
	if ent.err != nil {
		m.mu.Lock()
		delete(m.m, key)
		m.mu.Unlock()
	}
	close(ent.done)
	return ent.val, false, ent.err
}
