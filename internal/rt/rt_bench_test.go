package rt

import (
	"context"
	"testing"
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
		run  func(*Workload, TraceConfig) (*Trace, error)
	}{
		{"bytecode", Run},
		{"tree", func(w *Workload, cfg TraceConfig) (*Trace, error) {
			return RunOracle(context.Background(), w, cfg, nil)
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			w, _ := buildStream(b, 4096, 256)
			cfg := DefaultTraceConfig()
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
