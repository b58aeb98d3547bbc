package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dae/internal/fault"
)

// waitRefs blocks until key's flight has n interested callers.
func waitRefs[K comparable, V any](t *testing.T, g *Group[K, V], key K, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g.mu.Lock()
		got := -1
		if c, ok := g.m[key]; ok {
			got = c.refs
		}
		g.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %v has %d callers, want %d", key, got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDoCollapsesConcurrent: N concurrent callers on one key execute fn
// exactly once and all observe its value.
func TestDoCollapsesConcurrent(t *testing.T) {
	var g Group[string, int]
	var execs atomic.Int64
	gate := make(chan struct{})
	fn := func(context.Context) (int, error) {
		execs.Add(1)
		<-gate
		return 42, nil
	}

	const n = 32
	vals := make([]int, n)
	errs := make([]error, n)
	leaders := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i], leaders[i] = g.Do(context.Background(), "k", fn)
		}(i)
	}
	waitRefs(t, &g, "k", n) // every caller has joined the one flight
	close(gate)
	wg.Wait()

	nLeaders := 0
	for i := 0; i < n; i++ {
		if vals[i] != 42 || errs[i] != nil {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
		if leaders[i] {
			nLeaders++
		}
	}
	if got := execs.Load(); got != 1 || nLeaders != 1 {
		t.Fatalf("executions=%d leaders=%d, want exactly 1 of each", got, nLeaders)
	}
}

// TestDoSharesError: followers of a failing flight see the same error, and
// the key is free for a fresh execution afterwards.
func TestDoSharesError(t *testing.T) {
	var g Group[int, string]
	errBoom := errors.New("boom")
	gate := make(chan struct{})
	fail := func(context.Context) (string, error) {
		<-gate
		return "", errBoom
	}

	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err, _ := g.Do(context.Background(), 7, fail)
			errs <- err
		}()
	}
	waitRefs(t, &g, 7, 2)
	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errBoom) {
			t.Fatalf("caller error = %v, want %v", err, errBoom)
		}
	}

	v, err, leader := g.Do(context.Background(), 7, func(context.Context) (string, error) { return "fresh", nil })
	if err != nil || v != "fresh" || !leader {
		t.Fatalf("post-failure call = (%q, %v, leader=%t), want fresh leader", v, err, leader)
	}
}

// TestDoDistinctKeysIndependent: different keys never block each other.
func TestDoDistinctKeysIndependent(t *testing.T) {
	var g Group[int, int]
	gate := make(chan struct{})
	defer close(gate)
	go g.Do(context.Background(), 1, func(context.Context) (int, error) { <-gate; return 0, nil })

	v, err, leader := g.Do(context.Background(), 2, func(context.Context) (int, error) { return 9, nil })
	if v != 9 || err != nil || !leader {
		t.Fatalf("key 2 = (%d, %v, %t), want (9, nil, true)", v, err, leader)
	}
}

// TestDoPanicReleasesWaiters: a panic in fn reaches the leader and every
// follower as a fault.ErrPanic error, and does not wedge the key.
func TestDoPanicReleasesWaiters(t *testing.T) {
	var g Group[string, int]
	gate := make(chan struct{})
	boom := func(context.Context) (int, error) {
		<-gate
		panic("leader died")
	}

	const n = 3
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err, _ := g.Do(context.Background(), "p", boom)
			errs <- err
		}()
	}
	waitRefs(t, &g, "p", n)
	close(gate)
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, fault.ErrPanic) {
			t.Fatalf("caller error = %v, want fault.ErrPanic", err)
		}
	}

	v, err, leader := g.Do(context.Background(), "p", func(context.Context) (int, error) { return 5, nil })
	if v != 5 || err != nil || !leader {
		t.Fatalf("post-panic call = (%d, %v, %t), want fresh leader", v, err, leader)
	}
}

// TestDoLastLeaverCancels: when every caller abandons the flight, its
// context is canceled, so the execution aborts, and a later call starts
// afresh.
func TestDoLastLeaverCancels(t *testing.T) {
	var g Group[string, int]
	started := make(chan struct{})
	aborted := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
			close(started)
			<-fctx.Done()
			close(aborted)
			return 0, fault.Wrap(fault.KindTimeout, fctx.Err())
		})
		res <- err
	}()
	<-started
	cancel()
	if err := <-res; !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("abandoned call = %v, want fault.ErrTimeout", err)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not canceled by the last leaver")
	}

	v, err, leader := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || err != nil || !leader {
		t.Fatalf("fresh call = (%d, %v, %t), want (7, nil, true)", v, err, leader)
	}
}

// TestDoSurvivesOneLeaver: a flight with two callers keeps running when
// only one of them gives up.
func TestDoSurvivesOneLeaver(t *testing.T) {
	var g Group[string, int]
	gate := make(chan struct{})
	fn := func(fctx context.Context) (int, error) {
		<-gate
		if fctx.Err() != nil {
			return 0, errors.New("flight canceled while a caller was still waiting")
		}
		return 9, nil
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	first := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx1, "k", fn)
		first <- err
	}()
	type result struct {
		v   int
		err error
	}
	second := make(chan result, 1)
	go func() {
		v, err, _ := g.Do(context.Background(), "k", fn)
		second <- result{v, err}
	}()
	waitRefs(t, &g, "k", 2)

	cancel1()
	if err := <-first; !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("first leaver = %v, want fault.ErrTimeout", err)
	}
	close(gate)
	if r := <-second; r.err != nil || r.v != 9 {
		t.Fatalf("surviving caller = (%d, %v), want (9, nil)", r.v, r.err)
	}
}

// TestDoRetriesDoomedFlight: a caller that joins a flight its last waiter
// has already canceled — the flight dies under another caller's deadline —
// receives no timeout of its own: while its context lives, Do retries on a
// fresh flight, which it leads.
func TestDoRetriesDoomedFlight(t *testing.T) {
	var g Group[string, int]
	dying := make(chan struct{})
	gate := make(chan struct{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err, _ := g.Do(ctx, "k", func(fctx context.Context) (int, error) {
		<-fctx.Done()
		close(dying)
		<-gate // unwind slowly, so a later caller can still join
		return 0, fault.Wrap(fault.KindTimeout, fctx.Err())
	})
	if !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("deadline caller = %v, want fault.ErrTimeout", err)
	}
	<-dying

	var execs atomic.Int64
	type result struct {
		v      int
		err    error
		leader bool
	}
	res := make(chan result, 1)
	go func() {
		v, err, leader := g.Do(context.Background(), "k", func(context.Context) (int, error) {
			execs.Add(1)
			return 7, nil
		})
		res <- result{v, err, leader}
	}()
	waitRefs(t, &g, "k", 1) // the caller has joined the doomed flight
	close(gate)
	r := <-res
	if r.v != 7 || r.err != nil || !r.leader || execs.Load() != 1 {
		t.Fatalf("caller = (%d, %v, leader=%t) after %d executions, want (7, nil, true) after 1",
			r.v, r.err, r.leader, execs.Load())
	}
}
