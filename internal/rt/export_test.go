package rt

import (
	"context"

	"dae/internal/interp"
)

// RunOracle is RunContext with every core's interpreter built on the tree
// oracle (interp.NewOracleEnv) instead of the bytecode VM. stats, when
// non-nil, accumulates the run's dynamic op and op-pair histogram.
func RunOracle(ctx context.Context, w *Workload, cfg TraceConfig, stats *interp.OpStats) (*Trace, error) {
	return runContext(ctx, w, cfg, func(p *interp.Program, t interp.Tracer) *interp.Env {
		return interp.NewOracleEnv(p, t, stats)
	})
}
