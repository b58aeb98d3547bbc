package main

import (
	"context"
	"fmt"
	"time"

	"dae/internal/analysis/wcec"
	"dae/internal/bench"
	"dae/internal/eval"
	"dae/internal/interp"
	"dae/internal/ir"
	"dae/internal/mem"
	"dae/internal/rt"
)

// traceRun is one of an app's three traced runs with its reference trace.
type traceRun struct {
	app       bench.App
	variant   bench.Variant
	decoupled bool
	ref       *rt.Trace
}

// tracedRuns lists the coupled, manual-DAE and compiler-DAE runs of every
// app, paired with the reference traces in ref.
func tracedRuns(apps []bench.App, ref []*eval.AppData) ([]traceRun, error) {
	byName := make(map[string]*eval.AppData, len(ref))
	for _, d := range ref {
		byName[d.Name] = d
	}
	var runs []traceRun
	for _, app := range apps {
		d, ok := byName[app.Name]
		if !ok {
			return nil, fmt.Errorf("no reference traces for %s", app.Name)
		}
		runs = append(runs,
			traceRun{app, bench.Auto, false, d.CAE},
			traceRun{app, bench.Manual, true, d.Manual},
			traceRun{app, bench.Auto, true, d.Auto})
	}
	return runs, nil
}

// traceConfig is the trace configuration of daebench's collections.
func traceConfig(decoupled bool) rt.TraceConfig {
	cfg := rt.DefaultTraceConfig()
	cfg.Degrade = rt.DegradeAccess
	cfg.Decoupled = decoupled
	return cfg
}

// layerPasses measures the pipeline's layers one at a time on the traced
// runs of apps, calling each layer's public entry points directly:
//
//   - bench: App.Build of every run (time, heap allocation, IR size, access
//     versions and static prefetches generated);
//   - rt: RunContext of every build (must reproduce the reference trace and
//     pass Built.Verify), and Evaluate of every reference trace under the
//     fixed, min/max and optimal-EDP policies;
//   - wcec: WorkloadBounds of every app's compiler and manual builds;
//   - interp: a dispatch-only pass, every phase through interp.NewEnv(prog,
//     nil) in rt's order (access then execute, round-robin over cores); its
//     per-phase counts must equal the trace's and the output must verify;
//   - mem: each phase's address stream, recorded with an interp.Tracer, is
//     replayed through per-core mem.NewHierarchy with a shared L3; every
//     phase's replayed mem.Stats must equal the trace's.
//
// A mismatch is a failed output check.
func layerPasses(ctx context.Context, apps []bench.App, ref []*eval.AppData, res *result) error {
	runs, err := tracedRuns(apps, ref)
	if err != nil {
		return err
	}
	m := rt.DefaultMachine()

	var buildD time.Duration
	var buildAlloc uint64
	var irInstrs, accessVersions, prefetches int
	builds := make([]*bench.Built, len(runs))
	for i, r := range runs {
		a := allocated()
		t := time.Now()
		b, err := r.app.Build(r.variant)
		buildD += time.Since(t)
		buildAlloc += allocated() - a
		if err != nil {
			return fmt.Errorf("build %s: %w", r.app.Name, err)
		}
		builds[i] = b
		for _, f := range b.W.Module.Funcs {
			irInstrs += f.NumInstrs()
		}
		if r.variant == bench.Auto && r.decoupled {
			for _, dr := range b.Results {
				if dr.Access == nil {
					continue
				}
				accessVersions++
				dr.Access.Instrs(func(in ir.Instr) {
					if _, ok := in.(*ir.Prefetch); ok {
						prefetches++
					}
				})
			}
		}
	}
	res.set("bench.build_ms", ms(buildD), "ms")
	res.set("bench.alloc_kb", float64(buildAlloc)/1024, "KB")
	res.set("bench.ir_instrs", float64(irInstrs), "count")
	res.set("dae.access_versions", float64(accessVersions), "count")
	res.set("dae.static_prefetches", float64(prefetches), "count")

	// wcec before rt: bounds read only the IR, which tracing leaves intact.
	var boundD time.Duration
	var bounds, unbounded int
	for i, r := range runs {
		if r.variant == bench.Auto && !r.decoupled {
			continue // the coupled run shares the compiler build's bounds
		}
		an := wcec.New(wcec.NewCostModel(m.CPU))
		t := time.Now()
		bs := rt.WorkloadBounds(builds[i].W, an)
		boundD += time.Since(t)
		for _, set := range [][]*wcec.Bound{bs.Exec, bs.Access} {
			for _, b := range set {
				if b == nil {
					continue
				}
				bounds++
				if b.Kind == wcec.BoundUnbounded {
					unbounded++
				}
			}
		}
	}
	res.set("wcec.bound_ms", ms(boundD), "ms")
	res.note("wcec.bounds", float64(bounds), "count")
	res.set("wcec.unbounded", float64(unbounded), "count")

	var runD time.Duration
	var runAlloc uint64
	tasks := 0
	for i, r := range runs {
		a := allocated()
		t := time.Now()
		tr, err := rt.RunContext(ctx, builds[i].W, traceConfig(r.decoupled))
		runD += time.Since(t)
		runAlloc += allocated() - a
		if err != nil {
			return fmt.Errorf("trace %s: %w", r.app.Name, err)
		}
		tasks += len(tr.Records)
		res.check(builds[i].Verify())
		res.check(compareTraces(r.app.Name, tr, r.ref))
	}
	res.set("rt.run_ms", ms(runD), "ms")
	res.set("rt.alloc_kb", float64(runAlloc)/1024, "KB")
	res.note("rt.tasks", float64(tasks), "count")

	var evalD time.Duration
	calls := 0
	for _, r := range runs {
		for _, pol := range []rt.FreqPolicy{rt.PolicyFixed, rt.PolicyMinMax, rt.PolicyOptimalEDP} {
			t := time.Now()
			rt.Evaluate(r.ref, m, pol)
			evalD += time.Since(t)
			calls++
		}
	}
	res.set("rt.evaluate_ms", ms(evalD), "ms")
	res.note("rt.evaluate_calls", float64(calls), "count")

	var ip interpPass
	var mp memPass
	for _, r := range runs {
		if err := ip.run(r, res); err != nil {
			return err
		}
		if err := mp.run(r, res); err != nil {
			return err
		}
	}
	res.set("interp.ms", ms(ip.d), "ms")
	res.set("interp.ops", float64(ip.counts.Total()), "count")
	res.set("interp.ns_per_op", float64(ip.d)/float64(ip.counts.Total()), "ns")
	res.set("interp.loads", float64(ip.counts.Loads), "count")
	res.set("interp.stores", float64(ip.counts.Stores), "count")
	res.set("interp.prefetches", float64(ip.counts.Prefetches), "count")
	var levels [mem.NumLevels]int64
	for k := range mp.stats.At {
		for l, n := range mp.stats.At[k] {
			levels[l] += n
		}
	}
	res.set("mem.ms", ms(mp.d), "ms")
	res.set("mem.accesses", float64(mp.accesses), "count")
	res.set("mem.ns_per_access", float64(mp.d)/float64(mp.accesses), "ns")
	res.set("mem.l1_hits", float64(levels[mem.L1]), "count")
	res.set("mem.l2_hits", float64(levels[mem.L2]), "count")
	res.set("mem.l3_hits", float64(levels[mem.L3]), "count")
	res.set("mem.dram_accesses", float64(levels[mem.Mem]), "count")
	return nil
}

// compareTraces requires got to record exactly the phases of want.
func compareTraces(app string, got, want *rt.Trace) error {
	if got.Workload != want.Workload || got.Decoupled != want.Decoupled || got.Cores != want.Cores ||
		got.NumBatches != want.NumBatches || len(got.Quarantined) != len(want.Quarantined) ||
		len(got.Records) != len(want.Records) {
		return fmt.Errorf("%s %s trace: header or record count differs from the reference", app, runName(want))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			return fmt.Errorf("%s %s trace: record %d differs from the reference", app, runName(want), i)
		}
	}
	return nil
}

// phaseVisit is one task phase in the order rt.RunContext executes it.
type phaseVisit struct {
	core int
	fn   *ir.Func
	args []interp.Value
	want interp.Counts
	mem  mem.Stats
}

// phases lists a fresh build's task phases in rt's order, each paired with
// the work the reference trace recorded for it.
func phases(b *bench.Built, ref *rt.Trace) ([]phaseVisit, error) {
	var out []phaseVisit
	k := 0
	for _, batch := range b.W.Batches {
		for _, task := range batch {
			if k >= len(ref.Records) || ref.Records[k].Name != task.Name {
				return nil, fmt.Errorf("%s: task %d (%s) does not match the reference trace", b.W.Name, k, task.Name)
			}
			rec := ref.Records[k]
			k++
			if rec.HasAccess {
				out = append(out, phaseVisit{rec.Core, b.W.Access[task.Name], task.Args, rec.AccessWork.Counts, rec.AccessWork.Mem})
			}
			out = append(out, phaseVisit{rec.Core, b.W.Module.Func(task.Name), task.Args, rec.ExecWork.Counts, rec.ExecWork.Mem})
		}
	}
	if k != len(ref.Records) {
		return nil, fmt.Errorf("%s: %d tasks, reference trace has %d records", b.W.Name, k, len(ref.Records))
	}
	return out, nil
}

// cores gives each simulated core its own interpreter environment over one
// program, with prepared handles memoized per function as rt does.
type cores struct {
	envs  []*interp.Env
	preps []map[*ir.Func]*interp.Prepared
}

func newCores(prog *interp.Program, n int, tracer interp.Tracer) *cores {
	c := &cores{}
	for i := 0; i < n; i++ {
		c.envs = append(c.envs, interp.NewEnv(prog, tracer))
		c.preps = append(c.preps, make(map[*ir.Func]*interp.Prepared))
	}
	return c
}

// call runs one phase on its core and returns the phase's counts and the
// duration of the call alone.
func (c *cores) call(p phaseVisit) (interp.Counts, time.Duration, error) {
	env := c.envs[p.core]
	prep, ok := c.preps[p.core][p.fn]
	if !ok {
		var err error
		if prep, err = env.Prepare(p.fn); err != nil {
			return interp.Counts{}, 0, err
		}
		c.preps[p.core][p.fn] = prep
	}
	env.ResetCounts()
	t := time.Now()
	_, err := prep.Call(p.args...)
	d := time.Since(t)
	return env.Counts(), d, err
}

// interpPass is the dispatch-only isolation run: no tracer, no hierarchy.
type interpPass struct {
	d      time.Duration
	counts interp.Counts
}

func (ip *interpPass) run(r traceRun, res *result) error {
	b, err := r.app.Build(r.variant)
	if err != nil {
		return err
	}
	visits, err := phases(b, r.ref)
	if err != nil {
		return err
	}
	c := newCores(interp.NewProgram(b.W.Module), r.ref.Cores, nil)
	for i, p := range visits {
		counts, d, err := c.call(p)
		if err != nil {
			return fmt.Errorf("dispatch-only %s: %w", r.app.Name, err)
		}
		ip.d += d
		ip.counts.Add(counts)
		if counts != p.want {
			res.fail("dispatch-only %s %s phase %d (%s): counts differ from the trace", r.app.Name, runName(r.ref), i, p.fn.Name)
		}
	}
	res.check(b.Verify())
	return nil
}

// recorder is an interp.Tracer that records one phase's address stream.
type recorder struct {
	addrs []int64
	kinds []mem.AccessKind
}

func (r *recorder) Load(a int64)  { r.addrs = append(r.addrs, a); r.kinds = append(r.kinds, mem.Load) }
func (r *recorder) Store(a int64) { r.addrs = append(r.addrs, a); r.kinds = append(r.kinds, mem.Store) }
func (r *recorder) Prefetch(a int64) {
	r.addrs = append(r.addrs, a)
	r.kinds = append(r.kinds, mem.Prefetch)
}

// memPass is the recorded-stream cache replay.
type memPass struct {
	rec      recorder
	d        time.Duration
	accesses int64
	stats    mem.Stats
}

func (mp *memPass) run(r traceRun, res *result) error {
	b, err := r.app.Build(r.variant)
	if err != nil {
		return err
	}
	visits, err := phases(b, r.ref)
	if err != nil {
		return err
	}
	cfg := traceConfig(r.decoupled)
	c := newCores(interp.NewProgram(b.W.Module), r.ref.Cores, &mp.rec)
	l3 := mem.NewCache(cfg.Hierarchy.L3)
	hiers := make([]*mem.Hierarchy, r.ref.Cores)
	for i := range hiers {
		hiers[i] = mem.NewHierarchy(cfg.Hierarchy, l3)
	}
	for i, p := range visits {
		mp.rec.addrs, mp.rec.kinds = mp.rec.addrs[:0], mp.rec.kinds[:0]
		counts, _, err := c.call(p)
		if err != nil {
			return fmt.Errorf("recording %s: %w", r.app.Name, err)
		}
		if counts != p.want {
			res.fail("recording %s %s phase %d (%s): counts differ from the trace", r.app.Name, runName(r.ref), i, p.fn.Name)
		}
		h := hiers[p.core]
		h.ResetStats()
		t := time.Now()
		for j, a := range mp.rec.addrs {
			h.Access(a, mp.rec.kinds[j])
		}
		mp.d += time.Since(t)
		mp.accesses += int64(len(mp.rec.addrs))
		mp.stats.Add(h.Stats)
		if h.Stats != p.mem {
			res.fail("replay %s %s phase %d (%s): cache stats differ from the trace", r.app.Name, runName(r.ref), i, p.fn.Name)
		}
	}
	res.check(b.Verify())
	return nil
}
