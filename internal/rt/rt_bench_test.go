package rt_test

import (
	"context"
	"testing"

	"dae/internal/bench"
	"dae/internal/ir"
	"dae/internal/rt"
)

// BenchmarkTraceRun drives the full collection pipeline — access and execute
// phases, per-core cache hierarchies, schedule assembly — over the streaming
// workload, on the bytecode VM (arm "bytecode", what Run executes) and on
// the tree oracle (arm "tree", through RunOracle). The kernel is idempotent,
// so one built workload is reused across iterations and the figure isolates
// Run itself (task dispatch plus simulation) from compilation.
func BenchmarkTraceRun(b *testing.B) {
	for _, arm := range []struct {
		name string
		run  func(*rt.Workload, rt.TraceConfig) (*rt.Trace, error)
	}{
		{"bytecode", rt.Run},
		{"tree", func(w *rt.Workload, cfg rt.TraceConfig) (*rt.Trace, error) {
			return rt.RunOracle(context.Background(), w, cfg, nil)
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			w, _ := rt.BuildStream(b, 4096, 256)
			cfg := rt.DefaultTraceConfig()
			if _, err := arm.run(w, cfg); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := arm.run(w, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTraceGroup traces Cholesky's three runs — coupled, manual DAE,
// compiler DAE — as one RunGroup from one build (arm "grouped", what a
// cold collection does) and as three RunContext calls on three builds (arm
// "separate"). Execute phases update the heap in place, so every iteration
// builds afresh with the timer (and the allocation count) stopped: the
// figures cover tracing only.
func BenchmarkTraceGroup(b *testing.B) {
	app, err := bench.AppByName("Cholesky")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	build := func(v bench.Variant) *bench.Built {
		b.StopTimer()
		defer b.StartTimer()
		bt, err := app.Build(v)
		if err != nil {
			b.Fatal(err)
		}
		return bt
	}
	b.Run("grouped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bt := build(bench.Auto)
			_, errs := rt.RunGroup(ctx, bt.W, rt.DefaultTraceConfig(),
				[]map[string]*ir.Func{nil, bt.ManualAccess(), bt.W.Access})
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("separate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range []struct {
				v         bench.Variant
				decoupled bool
			}{{bench.Auto, false}, {bench.Manual, true}, {bench.Auto, true}} {
				bt := build(r.v)
				cfg := rt.DefaultTraceConfig()
				cfg.Decoupled = r.decoupled
				if _, err := rt.RunContext(ctx, bt.W, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
