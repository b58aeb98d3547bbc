package rt_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"dae/internal/bench"
	"dae/internal/ir"
	"dae/internal/rt"
)

// traceGroup builds app once and traces its three runs — coupled, manual
// DAE, compiler DAE, the order of suiteRuns — as one group under cfg, on
// the bytecode VM (rt.RunGroup) or on the tree oracle (rt.RunGroupOracle).
func traceGroup(app bench.App, oracle bool, cfg rt.TraceConfig) (*bench.Built, []*rt.Trace, []error, error) {
	b, err := app.Build(bench.Auto)
	if err != nil {
		return nil, nil, nil, err
	}
	access := []map[string]*ir.Func{nil, b.ManualAccess(), b.W.Access}
	var trs []*rt.Trace
	var errs []error
	if oracle {
		trs, errs = rt.RunGroupOracle(context.Background(), b.W, cfg, access, nil)
	} else {
		trs, errs = rt.RunGroup(context.Background(), b.W, cfg, access)
	}
	return b, trs, errs, nil
}

// errText is err's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffRun describes how a run traced in a group differs from the same run
// traced alone: its trace (by reflect.DeepEqual and by EncodeTrace bytes)
// and its fault text. It returns "" when they are equal.
func diffRun(got *rt.Trace, gotErr string, want *rt.Trace, wantErr string) string {
	if !reflect.DeepEqual(got, want) {
		return "traces differ"
	}
	if gotErr != wantErr {
		return fmt.Sprintf("faults differ:\ngroup: %.300s\nalone: %.300s", gotErr, wantErr)
	}
	if got == nil {
		return ""
	}
	g, err := rt.EncodeTrace(got)
	if err != nil {
		return err.Error()
	}
	w, err := rt.EncodeTrace(want)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(g, w) {
		return "trace encodings differ"
	}
	return ""
}

// TestGroupDifferentialAllRuns is the contract of RunGroup: an app's three
// runs traced as one group from one build equal the three runs traced alone
// by RunContext from three builds — the 21 runs of the engine differential
// — on the bytecode VM and on the tree oracle, and again under a step
// budget with execute faults contained (rt.DegradeFull), fault text
// included.
func TestGroupDifferentialAllRuns(t *testing.T) {
	bytecode, oracle := tracedSuite(t)
	runs := suiteRuns()
	budgeted := rt.DefaultTraceConfig()
	budgeted.MaxSteps, budgeted.Degrade = budget, rt.DegradeFull
	faulted := 0
	for ai, app := range bench.Apps() {
		for _, engine := range []struct {
			name   string
			oracle bool
			alone  []traced
		}{{"bytecode", false, bytecode}, {"tree", true, oracle}} {
			b, trs, errs, err := traceGroup(app, engine.oracle, rt.DefaultTraceConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Verify(); err != nil {
				t.Errorf("%s on %s: grouped output: %v", app.Name, engine.name, err)
			}
			for k := range trs {
				i := 3*ai + k
				if d := diffRun(trs[k], errText(errs[k]), engine.alone[i].trace, ""); d != "" {
					t.Errorf("%s on %s: %s", runs[i], engine.name, d)
				}
			}
			_, trs, errs, err = traceGroup(app, engine.oracle, budgeted)
			if err != nil {
				t.Fatal(err)
			}
			for k := range trs {
				i := 3*ai + k
				alone := engine.alone[i]
				if d := diffRun(trs[k], errText(errs[k]), alone.budgeted, alone.rawFaults); d != "" {
					t.Errorf("%s on %s under a %d-step budget: %s", runs[i], engine.name, budget, d)
				}
				if errs[k] != nil {
					faulted++
				}
			}
		}
	}
	if faulted == 0 {
		t.Errorf("no grouped run faulted under the %d-step budget, so the budgeted pass checked nothing", budget)
	}
}

// TestGroupDifferentialPlacement checks the group against runs traced alone
// on the bytecode VM under rt.PlaceLeastLoaded, where each run balances its
// own load, access phases included; and under a step budget with
// rt.DegradeOff, where a run whose access phase faults ends while the
// others go on. (The apps' batches balance alike in all three runs;
// TestGroupPlacesRunsApart covers runs that place a task on different
// cores, on both engines.)
func TestGroupDifferentialPlacement(t *testing.T) {
	leastLoaded := rt.DefaultTraceConfig()
	leastLoaded.Place = rt.PlaceLeastLoaded
	abort := rt.DefaultTraceConfig()
	abort.MaxSteps = budget
	runs := suiteRuns()
	droppedOut := false
	for ai, app := range bench.Apps() {
		for _, cfg := range []struct {
			name string
			cfg  rt.TraceConfig
		}{{"least-loaded", leastLoaded}, {"degrade-off budget", abort}} {
			alone := make([]*rt.Trace, 3)
			aloneErr := make([]string, 3)
			for k := range alone {
				_, tr, err := traceOn(runs[3*ai+k], false, cfg.cfg, nil)
				alone[k], aloneErr[k] = tr, errText(err)
			}
			_, trs, errs, err := traceGroup(app, false, cfg.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := range trs {
				if d := diffRun(trs[k], errText(errs[k]), alone[k], aloneErr[k]); d != "" {
					t.Errorf("%s (%s): %s", runs[3*ai+k], cfg.name, d)
				}
			}
			if aloneErr[1] != aloneErr[0] || aloneErr[2] != aloneErr[0] {
				droppedOut = true
			}
		}
	}
	if !droppedOut {
		t.Error("no app's runs ended differently under the DegradeOff budget, so a run leaving the group went unchecked")
	}
}
