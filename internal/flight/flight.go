// Package flight provides in-process call deduplication (singleflight)
// with refcounted cancellation: concurrent callers asking for the same key
// share one execution of the underlying function instead of each computing
// it independently. The trace cache uses it so two goroutines missing on
// the same key run one collection and write one disk envelope; the daed
// server uses it to collapse identical requests onto one pipeline
// execution.
//
// The execution runs in its own goroutine under a context that only the
// departure of its last waiter cancels: a caller whose context dies leaves
// with a timeout error, and the work stops only when nobody wants it any
// more. Unlike golang.org/x/sync/singleflight (not vendored here; the repo
// is dependency-free by policy), Group is generic over key and value types
// and reports whether the caller was the leader — the caller whose Do
// started the execution — which the callers use for statistics (collapse
// ratios).
package flight

import (
	"context"
	"errors"
	"sync"

	"dae/internal/fault"
)

// call is one in-flight (or just-completed) execution.
type call[V any] struct {
	cancel context.CancelFunc
	done   chan struct{} // closed once val and err are set
	val    V
	err    error
	refs   int // waiters still interested; guarded by Group.mu
}

// Group deduplicates concurrent executions per key. The zero value is ready
// to use. A Group must not be copied after first use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

// Do returns fn's result for key, making sure only one execution per key is
// in flight at a time: a caller finding one in flight waits for it and
// receives its value and error. fn runs in its own goroutine under a
// context that keeps ctx's values but not its cancellation; it is canceled
// when the last waiting caller leaves. A caller whose ctx dies first
// receives a fault.KindTimeout error at once. A panic in fn comes back to
// every waiter as the error fault.Recover makes of it (fault.KindPanic
// unless the panic value is already a typed fault). leader reports whether
// this call started the execution. Completed calls are never memoized;
// caching is the caller's concern.
//
// A follower can receive a timeout scoped to another caller: the flight it
// joined was already canceled by its last waiter, or fn failed under its
// own deadline. While ctx is alive such a follower retries on a fresh
// flight. Each pass either leads an execution (terminal either way) or
// follows a flight that started after the previous one ended, so the retry
// ends.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (v V, err error, leader bool) {
	for {
		if ctx.Err() != nil {
			var zero V
			return zero, fault.Wrap(fault.KindTimeout, ctx.Err()), false
		}
		var c *call[V]
		c, leader = g.join(ctx, key, fn)
		v, err = g.wait(ctx, c)
		if !leader && errors.Is(err, fault.ErrTimeout) && ctx.Err() == nil {
			continue
		}
		return v, err, leader
	}
}

// join returns the in-flight execution for key, starting one when none is
// running. leader reports whether this call started it.
func (g *Group[K, V]) join(ctx context.Context, key K, fn func(context.Context) (V, error)) (c *call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		c.refs++
		return c, false
	}
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c = &call[V]{cancel: cancel, done: make(chan struct{}), refs: 1}
	g.m[key] = c
	go g.run(fctx, key, c, fn)
	return c, true
}

// run executes fn for c and releases key, so the next Do starts afresh.
func (g *Group[K, V]) run(ctx context.Context, key K, c *call[V], fn func(context.Context) (V, error)) {
	defer c.cancel()
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	// No waiter shares this goroutine's stack, so a panic that escaped here
	// would end the process.
	defer fault.Recover(&c.err, "flight")
	c.val, c.err = fn(ctx)
}

// wait blocks until c completes or ctx dies. A caller whose ctx dies first
// gives up its reference; the last one to do so cancels the execution. The
// decision happens under the map lock, so a concurrent join either keeps
// the flight alive or joins one already canceled (Do's retry).
func (g *Group[K, V]) wait(ctx context.Context, c *call[V]) (V, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		g.mu.Lock()
		if c.refs--; c.refs == 0 {
			c.cancel()
		}
		g.mu.Unlock()
		var zero V
		return zero, fault.Wrap(fault.KindTimeout, ctx.Err())
	}
}
