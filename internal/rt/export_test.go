package rt

import (
	"context"
	"testing"

	"dae/internal/interp"
	"dae/internal/ir"
)

// RunOracle is RunContext with every core's interpreter built on the tree
// oracle (interp.NewOracleEnv) instead of the bytecode VM. stats, when
// non-nil, accumulates the run's dynamic op and op-pair histogram.
func RunOracle(ctx context.Context, w *Workload, cfg TraceConfig, stats *interp.OpStats) (*Trace, error) {
	trs, errs := RunGroupOracle(ctx, w, cfg, []map[string]*ir.Func{runAccess(w, cfg)}, stats)
	return trs[0], errs[0]
}

// RunGroupOracle is RunGroup on the tree oracle, as RunOracle is RunContext.
func RunGroupOracle(ctx context.Context, w *Workload, cfg TraceConfig, access []map[string]*ir.Func, stats *interp.OpStats) ([]*Trace, []error) {
	return runGroup(ctx, w, cfg, access, func(p *interp.Program, t interp.Tracer) *interp.Env {
		return interp.NewOracleEnv(p, t, stats)
	})
}

// BuildStream is buildStream for the external test package.
func BuildStream(tb testing.TB, total, chunk int) (*Workload, *interp.Heap) {
	return buildStream(tb, total, chunk)
}
