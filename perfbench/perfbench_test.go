package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dae/internal/bench"
	"dae/internal/dvfs"
	"dae/internal/eval"
	"dae/internal/mem"
	"dae/internal/rt"
)

// cgData collects CG once per test binary: the checks are exercised on real
// traces, perturbed one value at a time.
var cgData = sync.OnceValues(func() (*eval.AppData, error) {
	data, err := collectReference(context.Background(), []string{coldApp})
	if err != nil {
		return nil, err
	}
	return data[0], nil
})

func collectedCG(t *testing.T) *eval.AppData {
	t.Helper()
	d, err := cgData()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// cloneData copies d deeply enough that its trace records can be edited.
func cloneData(d *eval.AppData) *eval.AppData {
	c := *d
	for _, p := range []**rt.Trace{&c.CAE, &c.Manual, &c.Auto} {
		tr := **p
		tr.Records = append([]rt.TaskRecord(nil), tr.Records...)
		*p = &tr
	}
	return &c
}

// firstAccess returns the index of the first record with an access phase.
func firstAccess(t *testing.T, tr *rt.Trace) int {
	t.Helper()
	for i, rec := range tr.Records {
		if rec.HasAccess && rec.AccessWork.Counts.Loads > 0 {
			return i
		}
	}
	t.Fatal("no access phase in the trace")
	return -1
}

func TestCheckReportRejectsOneChangedDigit(t *testing.T) {
	d := collectedCG(t)
	report := []byte(eval.FormatRunReport(d, rt.DefaultMachine()))
	if err := checkReport(report, report); err != nil {
		t.Fatalf("identical reports rejected: %v", err)
	}
	i := strings.IndexAny(string(report), "123456789")
	bad := append([]byte(nil), report...)
	bad[i] = '0'
	if err := checkReport(bad, report); err == nil {
		t.Fatal("report with one digit changed was accepted")
	}
}

func TestCheckAccessStoreFreeRejectsAStore(t *testing.T) {
	d := collectedCG(t)
	if err := checkAccessStoreFree([]*eval.AppData{d}); err != nil {
		t.Fatalf("collected traces rejected: %v", err)
	}
	bad := cloneData(d)
	i := firstAccess(t, bad.Auto)
	bad.Auto.Records[i].AccessWork.Counts.Stores = 1
	bad.Auto.Records[i].AccessWork.Mem.At[mem.Store][mem.L1] = 1
	if err := checkAccessStoreFree([]*eval.AppData{bad}); err == nil {
		t.Fatal("access record with a store was accepted")
	}
}

func TestCheckHierarchyCountsRejectsOffByOne(t *testing.T) {
	d := collectedCG(t)
	if err := checkHierarchyCounts([]*eval.AppData{d}); err != nil {
		t.Fatalf("collected traces rejected: %v", err)
	}
	bad := cloneData(d)
	bad.Manual.Records[0].ExecWork.Mem.At[mem.Load][mem.L2]++
	if err := checkHierarchyCounts([]*eval.AppData{bad}); err == nil {
		t.Fatal("cache count off by one was accepted")
	}
}

func TestCheckSimReportRejectsWrongKey(t *testing.T) {
	d := collectedCG(t)
	ref, err := newServeRef([]*eval.AppData{d})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.sim[coldApp]
	if err := checkSimReport(coldApp, want, want); err != nil {
		t.Fatal(err)
	}
	// The zero-latency key's report answering a cold default-configuration
	// key.
	ideal := rt.DefaultMachine()
	ideal.DVFS = dvfs.Ideal()
	if err := checkSimReport(coldApp, eval.FormatRunReport(d, ideal), want); err == nil {
		t.Fatal("report of another key was accepted")
	}
}

func TestCheckPolicyOrderAndWCECPassOnCollectedTraces(t *testing.T) {
	data := []*eval.AppData{collectedCG(t)}
	m := rt.DefaultMachine()
	if err := checkPolicyOrder(data, m); err != nil {
		t.Fatal(err)
	}
	if err := checkWCEC(data, m); err != nil {
		t.Fatal(err)
	}
}

func TestCheckPurity(t *testing.T) {
	good := "task @a: purity PASS (strategy=affine)\ntask @b: no access version (no loads)\n"
	if err := checkPurity("X", good); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", good + "task @c: purity FAIL\n  store in access\n"} {
		if err := checkPurity("X", bad); err == nil {
			t.Fatalf("purity %q accepted", bad)
		}
	}
}

func TestCheckTraceDataRejectsChangedRecord(t *testing.T) {
	d := collectedCG(t)
	want, err := digestOf(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTraceData(d, want); err != nil {
		t.Fatal(err)
	}
	bad := cloneData(d)
	bad.CAE.Records[len(bad.CAE.Records)-1].ExecWork.Counts.Int++
	if err := checkTraceData(bad, want); err == nil {
		t.Fatal("trace with a changed record was accepted")
	}
}

func TestCheckEnvelopesWritten(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"a.json", "b.json"} {
		if err := os.WriteFile(filepath.Join(dir, n), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := snapshotDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEnvelopesWritten(snap, 2); err != nil {
		t.Fatal(err)
	}
	if err := checkEnvelopesWritten(snap, 3); err == nil {
		t.Fatal("envelope count off by one was accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "entry.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err = snapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := checkEnvelopesWritten(snap, 3); err == nil {
		t.Fatal("stray file in the trace cache was accepted")
	}
}

// TestLayerPassesMatchTheTrace runs the isolation replays on CG: they must
// reproduce the reference trace exactly, and a reference perturbed in one
// phase's counts or cache stats must fail them.
func TestLayerPassesMatchTheTrace(t *testing.T) {
	d := collectedCG(t)
	app, err := bench.AppByName(coldApp)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult()
	if err := layerPasses(context.Background(), []bench.App{app}, []*eval.AppData{d}, res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("isolation passes disagree with the trace: %v", res.problems)
	}
	for _, name := range []string{"interp.ms", "mem.ms", "rt.run_ms", "bench.build_ms", "wcec.bound_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
	if got, want := res.Metrics["mem.accesses"].Value, res.Metrics["interp.loads"].Value+res.Metrics["interp.stores"].Value+res.Metrics["interp.prefetches"].Value; got != want {
		t.Errorf("replayed %v accesses, interpreter counted %v memory instructions", got, want)
	}

	for name, perturb := range map[string]func(*rt.TaskRecord){
		"counts": func(r *rt.TaskRecord) { r.ExecWork.Counts.Branches++ },
		"cache":  func(r *rt.TaskRecord) { r.ExecWork.Mem.At[mem.Load][mem.L1]-- },
	} {
		bad := cloneData(d)
		perturb(&bad.Manual.Records[3])
		res := newResult()
		if err := layerPasses(context.Background(), []bench.App{app}, []*eval.AppData{bad}, res); err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("isolation passes accepted a reference with perturbed %s", name)
		}
	}
}

func TestQuantilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quantiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quantiles = %v %v %v", q1, q2, q3)
	}
	if p := percentile(xs, 0.99); p != 10 {
		t.Fatalf("p99 = %v", p)
	}
}

func TestSlicedP99IgnoresOneSlowSlice(t *testing.T) {
	// 5 slices of 100 requests over 5 s, each slice's latencies 1..100 ms;
	// the third slice is 10 times slower throughout.
	var samples []sample
	for sl := 0; sl < 5; sl++ {
		for i := 1; i <= 100; i++ {
			d := time.Duration(i) * time.Millisecond
			if sl == 2 {
				d *= 10
			}
			samples = append(samples, sample{d: d, endMs: int32(sl*1000 + i*9)})
		}
	}
	if got := slicedP99(samples, 5); got != 99 {
		t.Fatalf("slicedP99 = %v ms, want 99", got)
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsShort runs every workload end to end in its short form: one
// set-up, a window of a tenth of a second (so one op for repro-cold), and
// for serve-trace a key space of two apps. Each run must print
// exactly the metrics BENCHMARK.json declares. -short skips repro-cold,
// which needs full reproductions.
func TestWorkloadsShort(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	cases := []struct {
		workload string
		trace    bool
	}{
		{"serve-trace", false},
		{"serve-trace", true},
		{"repro-cold", false},
	}
	for _, c := range cases {
		name := c.workload
		if c.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			if testing.Short() && c.workload == "repro-cold" {
				t.Skip("full reproductions")
			}
			o := options{workload: c.workload, seed: 7, seconds: 100 * time.Millisecond, trace: c.trace,
				setupReps: 1, dir: t.TempDir(), apps: []string{"LU", coldApp}}
			res, err := workloads[c.workload](context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.problems)
			}
			want := endToEnd
			if c.trace {
				want = perLayer
			}
			var got []string
			for m := range res.Metrics {
				got = append(got, m)
			}
			sort.Strings(got)
			want = append([]string(nil), want...)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
			}
		})
	}
}
