package eval

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"dae/internal/bench"
	"dae/internal/fault"
	"dae/internal/fault/inject"
	"dae/internal/rt"
)

// TestInjectedFaultIsolatesRun is the acceptance regression test for the
// hardened pipeline (run under -race in CI): an injected panic in one of the
// 21 (app, run) collections and an injected trap in another must fail
// exactly those two runs — everything else completes, and a follow-up
// collection over the survivors' cache reproduces traces byte-identical to
// a fault-free collection.
func TestInjectedFaultIsolatesRun(t *testing.T) {
	ctx := context.Background()
	cfg := rt.DefaultTraceConfig()

	baseline := collect(t)

	in := inject.New(
		inject.Rule{Site: inject.SiteTraceRun, App: "FFT", Kind: "compiler-dae", Mode: inject.ModePanic},
		inject.Rule{Site: inject.SiteTraceRun, App: "LU", Kind: "coupled", Mode: inject.ModeTrap, Trap: fault.TrapOutOfBounds},
	)
	cache := NewTraceCache("") // collects the 19 surviving runs
	_, err := CollectAllWith(ctx, cfg, CollectOptions{Workers: 4, Cache: cache, Inject: in.Hook()})
	if err == nil {
		t.Fatal("injected faults did not surface")
	}
	fails := Failures(err)
	if len(fails) != 2 {
		t.Fatalf("got %d failures, want exactly the 2 injected ones: %v", len(fails), err)
	}
	// Joined in job order: LU (app 0) before FFT.
	if fails[0].App != "LU" || fails[0].Kind != "coupled" || fails[0].Class() != "trap" {
		t.Errorf("failure 0 = %s/%s/%s, want LU/coupled/trap", fails[0].App, fails[0].Kind, fails[0].Class())
	}
	if fails[1].App != "FFT" || fails[1].Kind != "compiler-dae" || fails[1].Class() != "panic" {
		t.Errorf("failure 1 = %s/%s/%s, want FFT/compiler-dae/panic", fails[1].App, fails[1].Kind, fails[1].Class())
	}
	if !errors.Is(err, fault.ErrTrap) || !errors.Is(err, fault.ErrPanic) {
		t.Error("joined error does not expose the fault classes via errors.Is")
	}
	if got := len(in.Fired()); got != 2 {
		t.Errorf("injector fired %d times, want 2: %v", got, in.Fired())
	}

	// Heal: same cache, injection off. Only the two failed runs re-simulate;
	// every output must be byte-identical to the fault-free baseline.
	healed, err := CollectAllWith(ctx, cfg, CollectOptions{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatalf("healing collection failed: %v", err)
	}
	sameTraces(t, baseline, healed)
}

// TestInjectionDeterministicOrder: the same rule set produces the same
// failure sequence (apps, kinds, classes) for any worker count, because
// failures are joined in job order, not completion order.
func TestInjectionDeterministicOrder(t *testing.T) {
	rules := []inject.Rule{
		{Site: inject.SiteCompile, Kind: "coupled", Mode: inject.ModeError},
		{Site: inject.SiteCompile, Kind: "manual-dae", Mode: inject.ModeStepBudget},
		{Site: inject.SiteCompile, Kind: "compiler-dae", Mode: inject.ModeHeapBudget},
	}
	type flatFail struct{ App, Kind, Class string }
	collect := func(workers int) []flatFail {
		in := inject.New(rules...)
		_, err := CollectAllWith(context.Background(), rt.DefaultTraceConfig(),
			CollectOptions{Workers: workers, Inject: in.Hook()})
		if err == nil {
			t.Fatalf("workers=%d: injection did not fire", workers)
		}
		var out []flatFail
		for _, f := range Failures(err) {
			out = append(out, flatFail{f.App, f.Kind, f.Class()})
		}
		return out
	}
	seq := collect(1)
	if len(seq) != 21 {
		t.Fatalf("got %d failures, want all 21 runs", len(seq))
	}
	for _, workers := range []int{4, 8} {
		if got := collect(workers); !reflect.DeepEqual(got, seq) {
			t.Errorf("workers=%d: failure order differs from sequential:\n%v\nvs\n%v", workers, got, seq)
		}
	}
	// Classes came through typed.
	for _, f := range seq {
		want := map[string]string{
			"coupled":      "error",
			"manual-dae":   "step-budget",
			"compiler-dae": "heap-budget",
		}[f.Kind]
		if f.Class != want {
			t.Errorf("%s/%s class = %s, want %s", f.App, f.Kind, f.Class, want)
		}
	}
}

// TestPerRunTimeout: a tiny RunTimeout fails each run with a typed timeout
// fault while the pool still drains all jobs cleanly.
func TestPerRunTimeout(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	_, err = collectApps(context.Background(), []bench.App{app}, rt.DefaultTraceConfig(),
		CollectOptions{Workers: 3, RunTimeout: time.Nanosecond})
	if err == nil {
		t.Fatal("expected timeout failures")
	}
	fails := Failures(err)
	if len(fails) != 3 {
		t.Fatalf("got %d failures, want 3 (one per run)", len(fails))
	}
	for _, f := range fails {
		if !errors.Is(f, fault.ErrTimeout) {
			t.Errorf("%s/%s: %v is not a timeout fault", f.App, f.Kind, f.Err)
		}
		if f.Class() != "timeout" {
			t.Errorf("%s/%s class = %s, want timeout", f.App, f.Kind, f.Class())
		}
	}
}

// TestCollectionCancel: canceling the collection context fails the
// remaining runs fast with timeout faults and the pool drains.
func TestCollectionCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: every run must fail fast, none may hang
	_, err := CollectAllWith(ctx, rt.DefaultTraceConfig(), CollectOptions{Workers: 4})
	if err == nil {
		t.Fatal("expected cancellation failures")
	}
	fails := Failures(err)
	if len(fails) != 21 {
		t.Fatalf("got %d failures, want all 21 runs", len(fails))
	}
	for _, f := range fails {
		if !errors.Is(f, context.Canceled) {
			t.Errorf("%s/%s: %v does not wrap context.Canceled", f.App, f.Kind, f.Err)
		}
	}
}
