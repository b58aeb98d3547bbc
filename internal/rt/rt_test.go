package rt

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dae/internal/dae"
	"dae/internal/dvfs"
	"dae/internal/fault"
	"dae/internal/interp"
	"dae/internal/ir"
	"dae/internal/mem"
)

// streamSrc is a memory-bound streaming kernel processed in task-sized
// chunks, the canonical DAE-friendly workload.
const streamSrc = `
task triad(float A[n], float B[n], float C[n], int n, int lo, int hi) {
	for (int i = lo; i < hi; i++) {
		A[i] = B[i] + 2.5 * C[i];
	}
}
`

// buildStream creates the workload plus its heap: total elements, chunked
// into tasks of chunk elements each, all in one parallel batch.
func buildStream(t testing.TB, total, chunk int) (*Workload, *interp.Heap) {
	t.Helper()
	opts := dae.Defaults()
	opts.ParamHints = map[string]int64{"n": int64(total), "lo": 0, "hi": int64(chunk)}
	w, results, err := BuildWorkload("stream", streamSrc, opts)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if results["triad"].Access == nil {
		t.Fatalf("no access version: %s", results["triad"].Reason)
	}
	h := interp.NewHeap()
	a := h.AllocFloat("A", total)
	b := h.AllocFloat("B", total)
	c := h.AllocFloat("C", total)
	for i := 0; i < total; i++ {
		b.F[i] = float64(i)
		c.F[i] = float64(2 * i)
	}
	var batch []Task
	for lo := 0; lo < total; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		batch = append(batch, Task{Name: "triad", Args: []interp.Value{
			interp.Ptr(a), interp.Ptr(b), interp.Ptr(c),
			interp.Int(int64(total)), interp.Int(int64(lo)), interp.Int(int64(hi)),
		}})
	}
	w.Batches = [][]Task{batch}
	return w, h
}

func TestTraceRunsAndComputes(t *testing.T) {
	w, h := buildStream(t, 4096, 256)
	tr, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 16 {
		t.Fatalf("records = %d, want 16", len(tr.Records))
	}
	// The computation must actually have happened.
	a := h.Segs()[0]
	for i := 0; i < 4096; i += 997 {
		want := float64(i) + 2.5*float64(2*i)
		if math.Abs(a.F[i]-want) > 1e-9 {
			t.Fatalf("A[%d] = %g, want %g", i, a.F[i], want)
		}
	}
	// Cores assigned round-robin.
	for i, rec := range tr.Records {
		if rec.Core != i%4 {
			t.Errorf("record %d on core %d, want %d", i, rec.Core, i%4)
		}
		if !rec.HasAccess {
			t.Errorf("record %d has no access phase", i)
		}
	}
}

func TestAccessPhaseWarmsExecutePhase(t *testing.T) {
	w, _ := buildStream(t, 8192, 512)
	trDAE, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := buildStream(t, 8192, 512)
	cfg := DefaultTraceConfig()
	cfg.Decoupled = false
	trCAE, err := Run(w2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Execute-phase DRAM load misses must be far fewer in the decoupled run:
	// the access phase prefetched the data into the private caches.
	var missDAE, missCAE int64
	for _, r := range trDAE.Records {
		missDAE += r.ExecWork.Mem.At[mem.Load][mem.Mem] + r.ExecWork.Mem.At[mem.Load][mem.L3]
	}
	for _, r := range trCAE.Records {
		missCAE += r.ExecWork.Mem.At[mem.Load][mem.Mem] + r.ExecWork.Mem.At[mem.Load][mem.L3]
	}
	if missCAE == 0 {
		t.Fatal("coupled run should miss (working set exceeds private caches)")
	}
	if missDAE*5 > missCAE {
		t.Errorf("decoupled execute misses = %d, coupled = %d; want at least 5× fewer", missDAE, missCAE)
	}
}

func TestDecoupledPreservesPerformanceUnderDVFS(t *testing.T) {
	// The paper's headline behaviour: CAE at low frequency loses time;
	// DAE with min/max keeps time near CAE@fmax while cutting EDP.
	w, _ := buildStream(t, 16384, 512)
	trDAE, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := buildStream(t, 16384, 512)
	cfg := DefaultTraceConfig()
	cfg.Decoupled = false
	trCAE, err := Run(w2, cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := DefaultMachine()
	base := Evaluate(trCAE, m, PolicyFixed) // CAE @ fmax

	mMin := m
	mMin.FixedFreq = m.DVFS.Fmin().Freq
	caeMin := Evaluate(trCAE, mMin, PolicyFixed)

	daeMinMax := Evaluate(trDAE, m, PolicyMinMax)

	// CAE at fmin on a partially memory-bound kernel is slower than fmax.
	if caeMin.Time <= base.Time*1.05 {
		t.Errorf("CAE@fmin time %.4g should exceed CAE@fmax %.4g", caeMin.Time, base.Time)
	}
	// DAE min/max must hold performance within ~10% of the fmax baseline.
	if daeMinMax.Time > base.Time*1.10 {
		t.Errorf("DAE min/max time %.4g vs CAE@fmax %.4g: >10%% degradation", daeMinMax.Time, base.Time)
	}
	// And it must save energy (access phase at fmin + fewer execute stalls).
	if daeMinMax.Energy >= base.Energy {
		t.Errorf("DAE energy %.4g should be below CAE@fmax %.4g", daeMinMax.Energy, base.Energy)
	}
	if daeMinMax.EDP >= base.EDP {
		t.Errorf("DAE EDP %.4g should beat CAE@fmax %.4g", daeMinMax.EDP, base.EDP)
	}
}

func TestOptimalEDPBeatsOrMatchesMinMax(t *testing.T) {
	w, _ := buildStream(t, 8192, 512)
	tr, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	minmax := Evaluate(tr, m, PolicyMinMax)
	opt := Evaluate(tr, m, PolicyOptimalEDP)
	if opt.EDP > minmax.EDP*1.02 {
		t.Errorf("optimal EDP %.4g should not lose to min/max %.4g", opt.EDP, minmax.EDP)
	}
}

func TestTransitionLatencyCost(t *testing.T) {
	w, _ := buildStream(t, 8192, 256)
	tr, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine() // 500 ns
	withLat := Evaluate(tr, m, PolicyMinMax)
	m.DVFS = dvfs.Ideal()
	noLat := Evaluate(tr, m, PolicyMinMax)
	if withLat.Time <= noLat.Time {
		t.Errorf("500ns transitions should cost time: %.6g vs %.6g", withLat.Time, noLat.Time)
	}
	if withLat.Transitions == 0 || withLat.TransitionTime == 0 {
		t.Error("min/max policy must record transitions")
	}
	if noLat.TransitionTime != 0 {
		t.Error("ideal transitions must cost no time")
	}
}

func TestFixedPolicyNoTransitions(t *testing.T) {
	w, _ := buildStream(t, 4096, 256)
	cfg := DefaultTraceConfig()
	cfg.Decoupled = false
	tr, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	res := Evaluate(tr, m, PolicyFixed)
	if res.Transitions != 0 {
		t.Errorf("fixed policy made %d transitions", res.Transitions)
	}
	if res.AccessTime != 0 {
		t.Error("coupled trace should have no access time")
	}
	if res.Tasks != 16 {
		t.Errorf("tasks = %d, want 16", res.Tasks)
	}
}

func TestMetricsAccounting(t *testing.T) {
	w, _ := buildStream(t, 4096, 256)
	tr, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	res := Evaluate(tr, m, PolicyMinMax)
	if res.Time <= 0 || res.Energy <= 0 || res.EDP <= 0 {
		t.Fatalf("non-positive metrics: %s", res)
	}
	if math.Abs(res.EDP-res.Time*res.Energy) > 1e-12*res.EDP {
		t.Error("EDP != T·E")
	}
	if res.TAFraction() <= 0 || res.TAFraction() >= 1 {
		t.Errorf("TA%% = %g, want in (0,1)", res.TAFraction())
	}
	if res.MeanAccessSeconds() <= 0 {
		t.Error("mean access time should be positive")
	}
	// Energy components must sum to the total.
	sum := res.AccessEnergy + res.ExecuteEnergy + res.OtherEnergy
	if math.Abs(sum-res.Energy) > 1e-9*res.Energy {
		t.Errorf("energy components %.6g != total %.6g", sum, res.Energy)
	}
}

func TestBarrierIdleAccounting(t *testing.T) {
	// 5 equal tasks on 4 cores: one core runs two, three cores idle at the
	// barrier.
	w, _ := buildStream(t, 5*256, 256)
	cfg := DefaultTraceConfig()
	tr, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Evaluate(tr, DefaultMachine(), PolicyMinMax)
	if res.IdleTime <= 0 {
		t.Error("imbalanced batch should produce idle time")
	}
}

func TestOnlinePolicyNearOptimal(t *testing.T) {
	// The online predictor (previous instance of the same task type) must
	// land within a few percent of the offline-profiled optimum on a
	// homogeneous task stream, and beat fixed-fmax on EDP.
	w, _ := buildStream(t, 16384, 512)
	tr, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	opt := Evaluate(tr, m, PolicyOptimalEDP)
	online := Evaluate(tr, m, PolicyOnline)
	fixed := Evaluate(tr, m, PolicyFixed)
	if online.EDP > opt.EDP*1.05 {
		t.Errorf("online EDP %.4g should be within 5%% of optimal %.4g", online.EDP, opt.EDP)
	}
	if online.EDP >= fixed.EDP {
		t.Errorf("online EDP %.4g should beat fixed-fmax %.4g", online.EDP, fixed.EDP)
	}
}

func TestSuggestGranularity(t *testing.T) {
	hier := mem.EvalHierarchy()
	// triad touches 3 arrays × 8 bytes per iteration.
	n := SuggestGranularity(24, hier)
	want := (hier.L1.SizeBytes + hier.L2.SizeBytes) / 24
	if n != want {
		t.Errorf("granularity = %d, want %d", n, want)
	}
	if SuggestGranularity(0, hier) != 1 || SuggestGranularity(1<<30, hier) != 1 {
		t.Error("degenerate inputs should clamp to 1")
	}
	// The suggestion should sit in the EDP sweet spot found by the
	// granularity ablation (hundreds to a few thousand elements).
	if n < 256 || n > 16384 {
		t.Errorf("suggested granularity %d outside the plausible band", n)
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	w, _ := buildStream(t, 4096, 256)
	tr, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	tr2, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultMachine()
	for _, pol := range []FreqPolicy{PolicyFixed, PolicyMinMax, PolicyOptimalEDP} {
		a := Evaluate(tr, m, pol)
		b := Evaluate(tr2, m, pol)
		if a != b {
			t.Errorf("policy %d: metrics differ after round trip:\n%+v\n%+v", pol, a, b)
		}
	}
	// Corrupted inputs are rejected.
	if _, err := LoadTrace(bytes.NewBufferString("{")); err == nil {
		t.Error("truncated JSON should fail")
	}
	if _, err := LoadTrace(bytes.NewBufferString(`{"version":99}`)); err == nil {
		t.Error("unknown version should fail")
	}
	if _, err := LoadTrace(bytes.NewBufferString(`{"version":1,"cores":0}`)); err == nil {
		t.Error("invalid core count should fail")
	}
}

func TestRunErrorPaths(t *testing.T) {
	w, _ := buildStream(t, 1024, 256)
	cfg := DefaultTraceConfig()
	cfg.Cores = 0
	if _, err := Run(w, cfg); err == nil {
		t.Error("zero cores must error")
	}
	w.Batches[0][0].Name = "missing"
	if _, err := Run(w, DefaultTraceConfig()); err == nil {
		t.Error("unknown task name must error")
	}
	w2, _ := buildStream(t, 1024, 256)
	w2.Batches[0][0].Args = w2.Batches[0][0].Args[:2]
	if _, err := Run(w2, DefaultTraceConfig()); err == nil {
		t.Error("wrong arity must error")
	}
}

// TestGroupRejectsStoringAccessPhase: the runs of a group share one heap,
// which is sound only while access phases store nothing. Wiring the task
// itself in as its own access version makes every access phase store; in
// a group that fails every run with a typed verify fault naming the task,
// while alone the run traces as it always has.
func TestGroupRejectsStoringAccessPhase(t *testing.T) {
	w, _ := buildStream(t, 1024, 256)
	storing := map[string]*ir.Func{"triad": w.Module.Func("triad")}
	trs, errs := RunGroup(context.Background(), w, DefaultTraceConfig(), []map[string]*ir.Func{nil, storing})
	for i, err := range errs {
		if !errors.Is(err, fault.ErrVerify) || !strings.Contains(err.Error(), "access phase of triad") {
			t.Errorf("run %d: err = %v, want a verify fault naming triad's access phase", i, err)
		}
		if trs[i] != nil {
			t.Errorf("run %d returned a trace despite the fault", i)
		}
	}
	trs, errs = RunGroup(context.Background(), w, DefaultTraceConfig(), []map[string]*ir.Func{storing})
	if errs[0] != nil || trs[0] == nil || !trs[0].Records[0].HasAccess {
		t.Errorf("a run alone with a storing access phase: err = %v, want a completed decoupled trace", errs[0])
	}
}

// TestGroupPlacesRunsApart: under PlaceLeastLoaded each run of a group
// balances its own load, so one shared execute phase can land on different
// cores in different runs, and its memory events must reach each run's own
// core. Here a scale task takes the core a triad task's access phase made
// busier in the decoupled run; both runs must still equal the same runs
// traced alone, on the bytecode VM and on the tree oracle.
func TestGroupPlacesRunsApart(t *testing.T) {
	const n = 512
	src := streamSrc + `
task scale(float D[n], float B[n], int n, int lo, int hi) {
	for (int i = lo; i < hi; i++) {
		D[i] = 3.0 * B[i];
	}
}
`
	opts := dae.Defaults()
	opts.ParamHints = map[string]int64{"n": n, "lo": 0, "hi": 128}
	w, results, err := BuildWorkload("two-kernels", src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if results["triad"].Access == nil {
		t.Fatalf("no access version: %s", results["triad"].Reason)
	}
	h := interp.NewHeap()
	a, b, c, d := h.AllocFloat("A", n), h.AllocFloat("B", n), h.AllocFloat("C", n), h.AllocFloat("D", n)
	triad := func(lo, hi int) Task {
		return Task{Name: "triad", Args: []interp.Value{interp.Ptr(a), interp.Ptr(b), interp.Ptr(c),
			interp.Int(n), interp.Int(int64(lo)), interp.Int(int64(hi))}}
	}
	scale := func(lo, hi int) Task {
		return Task{Name: "scale", Args: []interp.Value{interp.Ptr(d), interp.Ptr(b),
			interp.Int(n), interp.Int(int64(lo)), interp.Int(int64(hi))}}
	}
	// Both kernels only write what they read from B and C, so the workload
	// can be traced again and again from the one heap.
	w.Batches = [][]Task{{triad(0, 128), scale(0, 200), triad(128, 256), scale(200, 400)}}
	decoupled := map[string]*ir.Func{"triad": results["triad"].Access}
	cfg := DefaultTraceConfig()
	cfg.Cores, cfg.Place = 2, PlaceLeastLoaded
	access := []map[string]*ir.Func{nil, decoupled}

	alone := make([]*Trace, len(access))
	for i, acc := range access {
		w.Access = acc
		c := cfg
		c.Decoupled = acc != nil
		if alone[i], err = RunContext(context.Background(), w, c); err != nil {
			t.Fatal(err)
		}
	}
	moved := false
	for i := range alone[0].Records {
		if alone[0].Records[i].Core != alone[1].Records[i].Core {
			moved = true
		}
	}
	if !moved {
		t.Fatal("both runs placed every task alike; the test needs a task they place apart")
	}
	for _, engine := range []struct {
		name   string
		newEnv func(*interp.Program, interp.Tracer) *interp.Env
	}{
		{"bytecode", interp.NewEnv},
		{"tree", func(p *interp.Program, tr interp.Tracer) *interp.Env { return interp.NewOracleEnv(p, tr, nil) }},
	} {
		trs, errs := runGroup(context.Background(), w, cfg, access, engine.newEnv)
		for i := range access {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", engine.name, i, errs[i])
			}
			if !reflect.DeepEqual(trs[i], alone[i]) {
				t.Errorf("%s run %d: grouped trace differs from the run traced alone", engine.name, i)
			}
		}
	}
}

func TestLeastLoadedPlacementBalancesImbalance(t *testing.T) {
	// One batch with chunks of very different sizes: round robin piles the
	// big chunks onto the same cores; least-loaded spreads them.
	build := func() *Workload {
		opts := dae.Defaults()
		opts.HullTest = false
		w, _, err := BuildWorkload("imb", streamSrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		h := interp.NewHeap()
		const total = 32768
		a := h.AllocFloat("A", total)
		b := h.AllocFloat("B", total)
		c := h.AllocFloat("C", total)
		// Huge tasks at positions 0, 1, 4, 5: round robin stacks two huge
		// tasks each onto cores 0 and 1, while least-loaded spreads them
		// across all four cores.
		sizes := []int{7168, 7168, 512, 512, 7168, 7168, 512, 512, 512, 512, 512, 512}
		lo := 0
		var batch []Task
		for _, sz := range sizes {
			batch = append(batch, Task{Name: "triad", Args: []interp.Value{
				interp.Ptr(a), interp.Ptr(b), interp.Ptr(c),
				interp.Int(total), interp.Int(int64(lo)), interp.Int(int64(lo + sz)),
			}})
			lo += sz
		}
		w.Batches = [][]Task{batch}
		return w
	}

	m := DefaultMachine()
	run := func(p Placement) float64 {
		cfg := DefaultTraceConfig()
		cfg.Decoupled = false
		cfg.Place = p
		tr, err := Run(build(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Evaluate(tr, m, PolicyFixed).Time
	}
	rr := run(PlaceRoundRobin)
	ll := run(PlaceLeastLoaded)
	if ll >= rr {
		t.Errorf("least-loaded makespan %.4g should beat round robin %.4g on imbalanced batches", ll, rr)
	}
}
