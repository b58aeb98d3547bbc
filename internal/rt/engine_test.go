package rt_test

import (
	"context"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"dae/internal/bench"
	"dae/internal/dae"
	"dae/internal/interp"
	"dae/internal/rt"
)

// suiteRun is one of the evaluation's 21 (app, version) runs: each of the
// seven benchmarks coupled, with manual access phases, and with the
// compiler-generated ones.
type suiteRun struct {
	app       bench.App
	variant   bench.Variant
	decoupled bool
}

func (r suiteRun) String() string {
	switch {
	case !r.decoupled:
		return r.app.Name + "/coupled"
	case r.variant == bench.Manual:
		return r.app.Name + "/manual-dae"
	}
	return r.app.Name + "/compiler-dae"
}

func suiteRuns() []suiteRun {
	var runs []suiteRun
	for _, app := range bench.Apps() {
		runs = append(runs,
			suiteRun{app, bench.Auto, false},
			suiteRun{app, bench.Manual, true},
			suiteRun{app, bench.Auto, true})
	}
	return runs
}

// budget is the per-phase step budget of the differential's second pass.
// Most task phases run past it, so each faults inside a loop, naming the
// instruction at which the budget ran out. The traces do not record step
// totals; equal fault positions on both engines check the step accounting.
const budget = 5000

// valueNumber matches the number of an SSA temporary in a fault position.
// Two builds of one app may number their temporaries differently, so
// positions are compared without them.
var valueNumber = regexp.MustCompile(`%t[0-9]+`)

// traced is one run traced on one engine. stats is the tree oracle's op
// histogram (nil for the bytecode VM). budgeted is the run traced again
// under budget with execute faults contained (rt.DegradeFull), and faults
// is the text of the faults that pass returned.
type traced struct {
	trace    *rt.Trace
	results  map[string]*dae.Result
	stats    *interp.OpStats
	budgeted *rt.Trace
	faults   string
}

// traceOn builds r afresh and traces it under cfg on the bytecode VM
// (rt.RunContext) or on the tree oracle (rt.RunOracle, recording into
// stats).
func traceOn(r suiteRun, oracle bool, cfg rt.TraceConfig, stats *interp.OpStats) (*bench.Built, *rt.Trace, error) {
	b, err := r.app.Build(r.variant)
	if err != nil {
		return nil, nil, err
	}
	cfg.Decoupled = r.decoupled
	var tr *rt.Trace
	if oracle {
		tr, err = rt.RunOracle(context.Background(), b.W, cfg, stats)
	} else {
		tr, err = rt.RunContext(context.Background(), b.W, cfg)
	}
	return b, tr, err
}

// traceRun traces r on one engine, verifying the computed output, and then
// traces it again under budget.
func traceRun(r suiteRun, oracle bool) (traced, error) {
	var out traced
	if oracle {
		out.stats = &interp.OpStats{}
	}
	b, tr, err := traceOn(r, oracle, rt.DefaultTraceConfig(), out.stats)
	if err == nil {
		err = b.Verify()
	}
	if err != nil {
		return traced{}, fmt.Errorf("%s: %w", r, err)
	}
	out.trace, out.results = tr, b.Results
	cfg := rt.DefaultTraceConfig()
	cfg.MaxSteps, cfg.Degrade = budget, rt.DegradeFull
	if _, out.budgeted, err = traceOn(r, oracle, cfg, nil); err != nil {
		out.faults = valueNumber.ReplaceAllString(err.Error(), "%t")
	}
	return out, nil
}

// suiteWorkers is how many goroutines trace the suite.
const suiteWorkers = 4

var (
	suiteOnce                  sync.Once
	suiteBytecode, suiteOracle []traced
	suiteErr                   error
)

// tracedSuite traces every run on both engines, once per test binary. The
// 42 (run, engine) jobs are spread over suiteWorkers goroutines with the two
// engines interleaved, so under -race the collection also proves that the engines
// and the builds share no mutable state between concurrent runs.
func tracedSuite(t *testing.T) (bytecode, oracle []traced) {
	t.Helper()
	suiteOnce.Do(func() {
		runs := suiteRuns()
		suiteBytecode = make([]traced, len(runs))
		suiteOracle = make([]traced, len(runs))
		errs := make([]error, 2*len(runs))
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < suiteWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					i, oracle := j/2, j%2 == 1
					out, err := traceRun(runs[i], oracle)
					errs[j] = err
					if oracle {
						suiteOracle[i] = out
					} else {
						suiteBytecode[i] = out
					}
				}
			}()
		}
		for j := range errs {
			jobs <- j
		}
		close(jobs)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				suiteErr = err
				break
			}
		}
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suiteBytecode, suiteOracle
}

// TestEngineDifferentialAllRuns is the whole-suite gate of the engine
// contract: the register-bytecode VM and the tree oracle must produce
// byte-identical traces — records, work counts, memory statistics,
// quarantine state — on all 21 (app, version) runs, from builds with
// identical generation summaries, and the same traces and fault positions
// when every task phase runs out of a step budget.
func TestEngineDifferentialAllRuns(t *testing.T) {
	bytecode, oracle := tracedSuite(t)
	faulted := 0
	for i, r := range suiteRuns() {
		b, o := bytecode[i], oracle[i]
		if !reflect.DeepEqual(b.trace, o.trace) {
			t.Errorf("%s: traces differ between the bytecode VM and the tree oracle", r)
		}
		if !reflect.DeepEqual(b.budgeted, o.budgeted) || b.faults != o.faults {
			t.Errorf("%s: under a %d-step budget, traces or faults differ:\nbytecode: %.300s\ntree:     %.300s", r, budget, b.faults, o.faults)
		}
		if b.faults != "" {
			faulted++
		}
		if len(b.results) != len(o.results) {
			t.Errorf("%s: result counts differ", r)
			continue
		}
		for name, rb := range b.results {
			ro := o.results[name]
			if ro == nil {
				t.Errorf("%s: missing result for %s", r, name)
				continue
			}
			if rb.Strategy != ro.Strategy || rb.AffineLoops != ro.AffineLoops ||
				rb.TotalLoops != ro.TotalLoops || rb.NConvUn != ro.NConvUn {
				t.Errorf("%s/%s: generation summaries differ", r, name)
			}
		}
	}
	if faulted == 0 {
		t.Errorf("no run faulted under the %d-step budget, so the budgeted pass checked nothing", budget)
	}
}

// TestOpStatsHistogram checks the dynamic op and op-pair histogram of the 21
// runs, measured on the tree oracle (the unfused op stream the bytecode VM's
// superinstructions were chosen from): it is non-empty, a second collection
// records the same counts, and the rendering names the ops and the pair
// table. With -v it prints the histogram:
//
//	go test -run TestOpStatsHistogram -v ./internal/rt/
func TestOpStatsHistogram(t *testing.T) {
	_, oracle := tracedSuite(t)
	total := &interp.OpStats{}
	for _, o := range oracle {
		total.Merge(o.stats)
	}
	if total.Total() == 0 {
		t.Fatal("histogram is empty")
	}
	for i, r := range suiteRuns() {
		if r.app.Name != "LibQ" {
			continue
		}
		again := &interp.OpStats{}
		if _, _, err := traceOn(r, true, rt.DefaultTraceConfig(), again); err != nil {
			t.Fatal(err)
		}
		if *again != *oracle[i].stats {
			t.Errorf("%s: op histogram differs between two collections", r)
		}
	}
	out := total.Format()
	for _, want := range []string{"dynamic op histogram", "top op pairs", "loadF", "condbr", "prefetch"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output missing %q:\n%s", want, out)
		}
	}
	t.Log("\n" + out)
}
