package eval

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dae/internal/bench"
	"dae/internal/fault"
	"dae/internal/rt"
)

// TestConcurrentCollectionsSingleflight is the satellite contract for shared
// caches: two full CollectAllWith runs racing on one cache directory must
// produce byte-identical outputs with exactly one simulation and one disk
// write per key — the second goroutine to miss on a key waits for the first
// instead of recollecting and rewriting the envelope. Run under -race it
// additionally proves the flight hand-off is properly synchronized.
func TestConcurrentCollectionsSingleflight(t *testing.T) {
	tc := NewTraceCache(t.TempDir())
	var saves atomic.Int64
	tc.saveFault = func(int) error { saves.Add(1); return nil }

	cfg := rt.DefaultTraceConfig()
	var a, b []*AppData
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, errA = CollectAllWith(context.Background(), cfg, CollectOptions{Workers: 2, Cache: tc})
	}()
	go func() {
		defer wg.Done()
		b, errB = CollectAllWith(context.Background(), cfg, CollectOptions{Workers: 2, Cache: tc})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("collections failed: %v / %v", errA, errB)
	}
	sameTraces(t, a, b)

	wantKeys := len(bench.Apps()) * int(numRunKinds)
	if got := saves.Load(); got != int64(wantKeys) {
		t.Errorf("disk writes = %d, want exactly %d (one per key)", got, wantKeys)
	}
	entries, err := filepath.Glob(filepath.Join(tc.dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != wantKeys {
		t.Errorf("cache dir holds %d envelopes, want %d", len(entries), wantKeys)
	}
}

// TestCrossProcessCacheRace models two *processes* sharing a cache directory:
// two independent TraceCache instances (no shared in-process singleflight)
// race a collection of the same app. Both must succeed with byte-identical
// traces, the racing atomic renames must leave every envelope loadable by a
// third instance, and no temp files may survive.
func TestCrossProcessCacheRace(t *testing.T) {
	dir := t.TempDir()
	app, err := bench.AppByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()

	var a, b *AppData
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, errA = CollectWith(context.Background(), app, cfg, CollectOptions{Workers: 2, Cache: NewTraceCache(dir)})
	}()
	go func() {
		defer wg.Done()
		b, errB = CollectWith(context.Background(), app, cfg, CollectOptions{Workers: 2, Cache: NewTraceCache(dir)})
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("collections failed: %v / %v", errA, errB)
	}
	sameTraces(t, []*AppData{a}, []*AppData{b})

	leftovers, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) > 0 {
		t.Errorf("temp files survived the rename race: %v", leftovers)
	}

	// A third "process" must load every envelope cleanly (no torn writes),
	// serving the whole collection from disk without re-simulating.
	fresh := NewTraceCache(dir)
	fresh.saveFault = func(int) error {
		t.Error("warm collection wrote to disk; expected pure cache hits")
		return nil
	}
	c, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: fresh})
	if err != nil {
		t.Fatal(err)
	}
	sameTraces(t, []*AppData{a}, []*AppData{c})
}

// TestResolveRetriesSharedTimeout: a caller that joined a collection which
// then failed under its own deadline (a timeout scoped to the caller that
// started it) while the joiner's context is alive collects afresh instead
// of inheriting the failure.
func TestResolveRetriesSharedTimeout(t *testing.T) {
	tc := NewTraceCache("")
	leaderIn := make(chan struct{})
	block := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, err := tc.resolve(context.Background(), "k", func(context.Context) (*runOutput, error) {
			close(leaderIn)
			<-block
			return nil, fault.New(fault.KindTimeout, "leader deadline expired")
		})
		leaderErr <- err
	}()
	<-leaderIn

	done := make(chan *runOutput, 1)
	go func() {
		out, err := tc.resolve(context.Background(), "k", func(context.Context) (*runOutput, error) {
			return &runOutput{}, nil
		})
		if err != nil {
			t.Errorf("follower failed permanently: %v", err)
		}
		done <- out
	}()
	// Let the follower park on the flight. One that arrives late leads a
	// fresh collection and passes without exercising the retry.
	time.Sleep(100 * time.Millisecond)
	close(block)
	if err := <-leaderErr; !errors.Is(err, fault.ErrTimeout) {
		t.Fatalf("leader = %v, want its own timeout", err)
	}
	select {
	case out := <-done:
		if out == nil {
			t.Fatal("follower returned no output")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follower never completed after leader timeout")
	}
}

// TestCollectSharedCacheConcurrentSameApp: many goroutines collecting the
// same app through one shared cache trigger exactly one simulation (and one
// disk write) per run kind.
func TestCollectSharedCacheConcurrentSameApp(t *testing.T) {
	tc := NewTraceCache(t.TempDir())
	var saves atomic.Int64
	tc.saveFault = func(int) error { saves.Add(1); return nil }
	app, err := bench.AppByName("LU")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()

	const callers = 8
	results := make([]*AppData, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = CollectWith(context.Background(), app, cfg, CollectOptions{Workers: 3, Cache: tc})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		sameTraces(t, []*AppData{results[0]}, []*AppData{results[i]})
	}
	if got := saves.Load(); got != int64(numRunKinds) {
		t.Errorf("disk writes = %d, want exactly %d (one per run kind)", got, numRunKinds)
	}
}
