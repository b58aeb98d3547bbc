package eval

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dae/internal/bench"
	daepass "dae/internal/dae"
	"dae/internal/rt"
)

// sameTraces reports whether two collections produced byte-identical traces
// and equal generation summaries, in the same app order.
func sameTraces(t *testing.T, a, b []*AppData) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("collections differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("app %d: name %q vs %q (order must be deterministic)", i, a[i].Name, b[i].Name)
		}
		for _, tr := range []struct {
			kind string
			x, y *rt.Trace
		}{{"CAE", a[i].CAE, b[i].CAE}, {"Manual", a[i].Manual, b[i].Manual}, {"Auto", a[i].Auto, b[i].Auto}} {
			if !reflect.DeepEqual(tr.x, tr.y) {
				t.Errorf("%s: %s traces differ between collections", a[i].Name, tr.kind)
			}
		}
		if len(a[i].Results) != len(b[i].Results) {
			t.Errorf("%s: result counts differ", a[i].Name)
			continue
		}
		for name, ra := range a[i].Results {
			rb := b[i].Results[name]
			if rb == nil {
				t.Errorf("%s: missing result for %s", a[i].Name, name)
				continue
			}
			if ra.Strategy != rb.Strategy || ra.AffineLoops != rb.AffineLoops ||
				ra.TotalLoops != rb.TotalLoops || ra.NConvUn != rb.NConvUn {
				t.Errorf("%s/%s: generation summaries differ", a[i].Name, name)
			}
		}
	}
}

// TestParallelCollectionDeterminism is the hidden-shared-state regression
// test: a sequential collection and a 4-worker collection of every benchmark
// (the shared baseline, collect) must produce deeply equal traces. Run under
// -race it additionally proves the per-run state (interp envs, heaps,
// caches) is not shared.
func TestParallelCollectionDeterminism(t *testing.T) {
	cfg := rt.DefaultTraceConfig()
	seq, err := CollectAllWith(context.Background(), cfg, CollectOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par := collect(t)
	sameTraces(t, seq, par)
	// Table 1 — including the rwcec policy column, whose bounds come from a
	// deterministic per-app rebuild — must be byte-identical across worker
	// counts.
	m := rt.DefaultMachine()
	t1, t2 := FormatTable1(Table1(seq, m)), FormatTable1(Table1(par, m))
	if t1 != t2 {
		t.Errorf("Table 1 differs across worker counts:\n--- workers=1\n%s--- workers=4\n%s", t1, t2)
	}
}

// TestCollectAggregatesErrors: a failing benchmark must not mask the other
// failures — every app's error surfaces in the joined result.
func TestCollectAggregatesErrors(t *testing.T) {
	errA := errors.New("boom-A")
	errB := errors.New("boom-B")
	apps := []bench.App{
		{Name: "BrokenA", Build: func(bench.Variant) (*bench.Built, error) { return nil, errA }},
		{Name: "BrokenB", Build: func(bench.Variant) (*bench.Built, error) { return nil, errB }},
	}
	for _, workers := range []int{1, 4} {
		_, err := collectApps(context.Background(), apps, rt.DefaultTraceConfig(), CollectOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if !errors.Is(err, errA) || !errors.Is(err, errB) {
			t.Errorf("workers=%d: joined error should wrap both failures, got: %v", workers, err)
		}
		msg := err.Error()
		if !strings.Contains(msg, "BrokenA") || !strings.Contains(msg, "BrokenB") {
			t.Errorf("workers=%d: error should name both apps, got: %q", workers, msg)
		}
	}
}

// phaseCounter counts the task phases a collection runs, per run kind.
type phaseCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (pc *phaseCounter) hook(app, kind, task string, access bool) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.n == nil {
		pc.n = map[string]int{}
	}
	pc.n[kind]++
	return nil
}

// TestTraceCacheSharing: a refined collection only re-traces the compiler-DAE
// decoupled runs whose refinement pruned a prefetch; the coupled and manual
// traces come from the shared cache (same pointers), and so does the
// compiler-DAE trace when refinement pruned nothing. A repeated plain
// collection is served entirely from the cache.
func TestTraceCacheSharing(t *testing.T) {
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	cache := NewTraceCache(dir)
	spec := &RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	collect := func(name string, refine *RefineSpec) (*AppData, map[string]int) {
		t.Helper()
		app, err := bench.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var pc phaseCounter
		d, err := CollectWith(context.Background(), app, cfg, CollectOptions{
			Cache: cache, Refine: refine, InjectPhase: pc.hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d, pc.n
	}

	plain, _ := collect("LibQ", nil)
	again, phases := collect("LibQ", nil)
	if again.CAE != plain.CAE || again.Manual != plain.Manual || again.Auto != plain.Auto {
		t.Error("repeated collection should be served from the cache (same trace pointers)")
	}
	if len(phases) != 0 {
		t.Errorf("repeated collection ran phases %v, want none", phases)
	}

	// LibQ's refinement prunes no prefetch, so the refined build is the
	// unrefined build: nothing is simulated again.
	refined, phases := collect("LibQ", spec)
	if refined.CAE != plain.CAE {
		t.Error("refined collection should reuse the cached coupled trace")
	}
	if refined.Manual != plain.Manual {
		t.Error("refined collection should reuse the cached manual trace")
	}
	if refined.Auto != plain.Auto {
		t.Error("LibQ's refined collection pruned nothing and should reuse the unrefined compiler-DAE trace")
	}
	if len(phases) != 0 {
		t.Errorf("LibQ's refined collection ran phases %v, want none", phases)
	}
	// The refined run still has its own entry, so a later process finds it
	// on disk: coupled, manual, compiler-DAE and refined compiler-DAE.
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 4 {
		t.Errorf("cache holds %d envelopes after LibQ's plain and refined collections, want 4", len(files))
	}

	// CG's refinement prunes a prefetch: its compiler-DAE run re-traces.
	cgPlain, _ := collect("CG", nil)
	cgRefined, phases := collect("CG", spec)
	if cgRefined.CAE != cgPlain.CAE || cgRefined.Manual != cgPlain.Manual {
		t.Error("CG's refined collection should reuse the cached coupled and manual traces")
	}
	if cgRefined.Auto == cgPlain.Auto {
		t.Error("CG's refined collection pruned a prefetch and must re-trace the compiler-DAE run")
	}
	if phases["compiler-dae"] == 0 || phases["coupled"] != 0 || phases["manual-dae"] != 0 {
		t.Errorf("CG's refined collection ran phases %v, want compiler-dae only", phases)
	}
}

// TestRefinePruningNothingTracesIdentically is the premise of the reuse in
// TestTraceCacheSharing: where refinement prunes no prefetch (LU and LibQ
// today), the refined compiler-DAE run, simulated with no cache, encodes
// byte for byte like the unrefined one.
func TestRefinePruningNothingTracesIdentically(t *testing.T) {
	cfg := rt.DefaultTraceConfig()
	spec := &RefineSpec{Options: daepass.DefaultRefine(), PerTask: 4}
	for _, name := range []string{"LU", "LibQ"} {
		app, err := bench.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := app.Build(bench.Auto)
		if err != nil {
			t.Fatal(err)
		}
		if pruned, err := b.Refine(spec.Options, spec.PerTask); err != nil || pruned != 0 {
			t.Fatalf("%s: refinement pruned %d prefetches (err %v), want 0", name, pruned, err)
		}
		encode := func(refine *RefineSpec) []byte {
			t.Helper()
			g := collectGroup(context.Background(), app, []runKind{runAuto}, cfg, CollectOptions{Refine: refine}, nil)
			out, err := g.outs[runAuto], g.errs[runAuto]
			if err != nil {
				t.Fatal(err)
			}
			raw, err := rt.EncodeTrace(out.Trace)
			if err != nil {
				t.Fatal(err)
			}
			return raw
		}
		if !bytes.Equal(encode(spec), encode(nil)) {
			t.Errorf("%s: refined trace differs from the unrefined trace although nothing was pruned", name)
		}
	}
}
