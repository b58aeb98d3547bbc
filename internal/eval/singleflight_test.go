package eval

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dae/internal/bench"
	daepass "dae/internal/dae"
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

// TestResolveRetriesSharedTimeout: a caller that joined an app's flight
// takes from it every run stored under its own keys, failures included,
// and collects afresh only the run the flight's leader lost to a timeout
// of its own (the leader's deadline; the joiner's context is alive).
func TestResolveRetriesSharedTimeout(t *testing.T) {
	keys := [numRunKinds]string{"cae", "manual", "auto"}
	errAccess := fault.New(fault.KindTrap, "access phase trapped")
	// A joiner that arrives after the leader's flight ended leads its own
	// and shows nothing; try again then.
	for attempt := 0; attempt < 10; attempt++ {
		tc := NewTraceCache("")
		leaderIn := make(chan struct{})
		block := make(chan struct{})
		cae := &runOutput{}
		leaderDone := make(chan *groupOutput, 1)
		go func() {
			leaderDone <- tc.resolve(context.Background(), "app", keys, allKinds, func(_ context.Context, missing []runKind) *groupOutput {
				close(leaderIn)
				<-block
				var g groupOutput
				g.outs[runCAE] = cae
				g.errs[runManual] = errAccess
				g.errs[runAuto] = fault.New(fault.KindTimeout, "leader deadline expired")
				return &g
			})
		}()
		<-leaderIn

		var asked []runKind
		joinerDone := make(chan *groupOutput, 1)
		go func() {
			joinerDone <- tc.resolve(context.Background(), "app", keys, allKinds, func(_ context.Context, missing []runKind) *groupOutput {
				asked = missing
				var g groupOutput
				for _, k := range missing {
					g.outs[k] = &runOutput{}
				}
				return &g
			})
		}()
		time.Sleep(100 * time.Millisecond) // let the joiner park on the flight
		close(block)
		if g := <-leaderDone; !errors.Is(g.errs[runAuto], fault.ErrTimeout) || g.outs[runCAE] != cae {
			t.Fatalf("leader = %+v, want its own outcomes", g)
		}
		var g *groupOutput
		select {
		case g = <-joinerDone:
		case <-time.After(30 * time.Second):
			t.Fatal("joiner never completed after the leader's timeout")
		}
		if len(asked) == int(numRunKinds) {
			continue
		}
		if !slices.Equal(asked, []runKind{runAuto}) {
			t.Fatalf("joiner collected %v afresh, want only %v", asked, runAuto)
		}
		if g.outs[runCAE] != cae || g.errs[runCAE] != nil {
			t.Errorf("joiner's coupled run = (%p, %v), want the leader's output", g.outs[runCAE], g.errs[runCAE])
		}
		if g.outs[runManual] != nil || !errors.Is(g.errs[runManual], errAccess) {
			t.Errorf("joiner's manual run = (%p, %v), want the leader's fault", g.outs[runManual], g.errs[runManual])
		}
		if g.outs[runAuto] == nil || g.errs[runAuto] != nil {
			t.Errorf("joiner's compiler run = (%p, %v), want its own output", g.outs[runAuto], g.errs[runAuto])
		}
		return
	}
	t.Fatal("the joiner never joined the leader's flight in 10 attempts")
}

// TestCollectTimeoutSparesCachedRuns: when an app's traced runs time out,
// the runs its collection loaded from the cache still succeed, so the
// failure summary names only the runs that timed out.
func TestCollectTimeoutSparesCachedRuns(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	tc := NewTraceCache("")
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: tc}); err != nil {
		t.Fatal(err)
	}
	delete(tc.mem, runKey(app.Name, runAuto, cfg, nil))

	_, err = collectApps(context.Background(), []bench.App{app}, cfg,
		CollectOptions{Cache: tc, RunTimeout: time.Nanosecond})
	fails := Failures(err)
	if len(fails) != 1 || fails[0].Kind != runAuto.String() || !errors.Is(fails[0], fault.ErrTimeout) {
		t.Fatalf("failures = %v, want one timeout of the %s run", err, runAuto)
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

// TestCollectSharedCachePlainAndRefined: a plain and a refined collection
// of one app racing on a shared cache simulate each run once — the coupled
// and manual runs they share, and each one's compiler run — and each gets
// the traces it would get alone. CG's refinement prunes a prefetch; LU's
// prunes none, so its refined run is its unrefined one.
func TestCollectSharedCachePlainAndRefined(t *testing.T) {
	cfg := rt.DefaultTraceConfig()
	refine := &RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	for _, name := range []string{"CG", "LU"} {
		app, err := bench.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tc := NewTraceCache(t.TempDir())
		var saves atomic.Int64
		tc.saveFault = func(int) error { saves.Add(1); return nil }

		specs := []*RefineSpec{nil, refine}
		got := make([]*AppData, len(specs))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, r := range specs {
			wg.Add(1)
			go func(i int, r *RefineSpec) {
				defer wg.Done()
				got[i], errs[i] = CollectWith(context.Background(), app, cfg, CollectOptions{Cache: tc, Refine: r})
			}(i, r)
		}
		wg.Wait()
		for i, r := range specs {
			if errs[i] != nil {
				t.Fatalf("%s collection %d: %v", name, i, errs[i])
			}
			alone, err := CollectWith(context.Background(), app, cfg, CollectOptions{Refine: r})
			if err != nil {
				t.Fatal(err)
			}
			sameTraces(t, []*AppData{got[i]}, []*AppData{alone})
		}
		if got, want := saves.Load(), int64(numRunKinds)+1; got != want {
			t.Errorf("%s: disk writes = %d, want exactly %d (one per key)", name, got, want)
		}
	}
}
