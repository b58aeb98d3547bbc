package eval

import (
	"bytes"
	"context"
	"encoding/csv"
	"math"
	"strings"
	"sync"
	"testing"

	"dae/internal/bench"
	"dae/internal/dae"
	"dae/internal/dvfs"
	"dae/internal/rt"
)

// collectWorkers is the worker count of the shared baseline collection.
const collectWorkers = 4

var (
	collectOnce sync.Once
	collected   []*AppData
	collectErr  error
)

// collect returns the package's one default-config collection of every
// benchmark, made once per test binary on collectWorkers workers with no
// trace cache. Tests read it and must not modify it.
func collect(t *testing.T) []*AppData {
	t.Helper()
	collectOnce.Do(func() {
		collected, collectErr = CollectAllWith(context.Background(), rt.DefaultTraceConfig(),
			CollectOptions{Workers: collectWorkers})
	})
	if collectErr != nil {
		t.Fatalf("collect: %v", collectErr)
	}
	return collected
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1,4) = %g, want 2", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Error("geomean of empty should be 0")
	}
	if g := GeoMean([]float64{3}); math.Abs(g-3) > 1e-12 {
		t.Error("geomean of singleton")
	}
}

func TestTable1Shape(t *testing.T) {
	data := collect(t)
	m := rt.DefaultMachine()
	rows := Table1(data, m)
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byApp := map[string]Table1Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Tasks == 0 {
			t.Errorf("%s: no tasks", r.App)
		}
		if r.TAPercent <= 0 || r.TAPercent >= 100 {
			t.Errorf("%s: TA%% = %g out of range", r.App, r.TAPercent)
		}
		if r.TAMicros <= 0.3 || r.TAMicros > 200 {
			t.Errorf("%s: TA = %g µs implausible (paper range ~2-30 µs)", r.App, r.TAMicros)
		}
	}
	// LU and Cholesky fully affine; FFT/LBM skeleton-dominated.
	if byApp["LU"].AffineLoops != byApp["LU"].TotalLoops {
		t.Errorf("LU should be fully affine: %d/%d", byApp["LU"].AffineLoops, byApp["LU"].TotalLoops)
	}
	if byApp["Cholesky"].AffineLoops != byApp["Cholesky"].TotalLoops {
		t.Errorf("Cholesky should be fully affine")
	}
	if byApp["FFT"].AffineLoops != 0 {
		t.Errorf("FFT affine loops = %d, want 0", byApp["FFT"].AffineLoops)
	}
	if byApp["LBM"].AffineLoops != 0 {
		t.Errorf("LBM affine loops = %d, want 0", byApp["LBM"].AffineLoops)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "LU") || !strings.Contains(out, "TA%") {
		t.Error("formatted table missing content")
	}
}

func TestFig3Shape(t *testing.T) {
	data := collect(t)
	m := rt.DefaultMachine()
	rows := Fig3(data, m)
	if len(rows) != 8 { // 7 apps + geomean
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	gm := rows[len(rows)-1]
	if gm.App != "G.Mean" {
		t.Fatal("last row must be the geometric mean")
	}

	// Headline claims (paper §6.1, 500 ns transitions): both DAE optimal
	// configurations improve mean EDP by roughly a quarter with only a few
	// percent time loss; the compiler version is at least competitive with
	// the expert's.
	h := ComputeHeadline(rows)
	t.Logf("%s", FormatHeadline(h, "500ns"))
	if h.AutoEDPGain < 0.15 || h.AutoEDPGain > 0.60 {
		t.Errorf("Compiler DAE mean EDP gain = %.1f%%, want roughly 25%% (15-60%%)", 100*h.AutoEDPGain)
	}
	if h.ManualEDPGain < 0.10 {
		t.Errorf("Manual DAE mean EDP gain = %.1f%%, want > 10%%", 100*h.ManualEDPGain)
	}
	// Our hand-written baseline prefetches at cache-line granularity in
	// every kernel (stronger than the paper's expert versions), so the
	// compiler is required to stay within a few points of it overall; the
	// per-app §6.2 claims are asserted below.
	if h.AutoEDPGain < h.ManualEDPGain-0.05 {
		t.Errorf("Compiler DAE (%.1f%%) should be within 5 points of Manual DAE (%.1f%%) on mean EDP",
			100*h.AutoEDPGain, 100*h.ManualEDPGain)
	}
	// §6.2.1/§6.2.2: on the affine apps and FFT the compiler matches or
	// beats the expert.
	for _, r := range rows[:7] {
		switch r.App {
		case "LU", "Cholesky":
			if r.EDP[AutoOptimal] > r.EDP[ManualOptimal]+0.01 {
				t.Errorf("%s: compiler EDP %.3f should beat manual %.3f (§6.2.1)",
					r.App, r.EDP[AutoOptimal], r.EDP[ManualOptimal])
			}
		case "FFT":
			if r.EDP[AutoOptimal] > r.EDP[ManualOptimal]*1.10 {
				t.Errorf("FFT: compiler EDP %.3f should be competitive with manual %.3f (§6.2.2)",
					r.EDP[AutoOptimal], r.EDP[ManualOptimal])
			}
		}
	}
	if h.AutoTimeLoss > 0.12 {
		t.Errorf("Compiler DAE mean time loss = %.1f%%, want small (< 12%%)", 100*h.AutoTimeLoss)
	}

	// Per-app sanity: normalized values are positive; CAE optimal saves
	// energy but costs time on every app.
	for _, r := range rows[:7] {
		if r.Time[CAEOptimal] < 1.0 {
			t.Errorf("%s: CAE optimal time %.3f should not beat fmax", r.App, r.Time[CAEOptimal])
		}
		if r.Energy[CAEOptimal] > 1.0 {
			t.Errorf("%s: CAE optimal energy %.3f should save energy", r.App, r.Energy[CAEOptimal])
		}
	}

	// The LBM exception: coupled optimal EDP at least rivals compiler DAE.
	for _, r := range rows[:7] {
		if r.App == "LBM" {
			if r.EDP[CAEOptimal] > r.EDP[AutoOptimal]*1.15 {
				t.Errorf("LBM: CAE optimal EDP %.3f should rival DAE %.3f (paper's exception)",
					r.EDP[CAEOptimal], r.EDP[AutoOptimal])
			}
		}
	}

	for _, metric := range []string{"Time", "Energy", "EDP"} {
		out := FormatFig3(rows, metric)
		if !strings.Contains(out, "G.Mean") {
			t.Errorf("formatted %s table missing geomean", metric)
		}
	}
}

func TestZeroLatencyImprovesOnRealistic(t *testing.T) {
	data := collect(t)
	real := rt.DefaultMachine()
	ideal := real
	ideal.DVFS = dvfs.Ideal()

	hReal := ComputeHeadline(Fig3(data, real))
	hIdeal := ComputeHeadline(Fig3(data, ideal))
	t.Logf("%s%s", FormatHeadline(hReal, "500ns"), FormatHeadline(hIdeal, "0ns"))

	// §6.1: with zero transition latency both DAE variants gain a few more
	// EDP points and lose less time.
	if hIdeal.AutoEDPGain < hReal.AutoEDPGain {
		t.Errorf("zero-latency EDP gain %.3f should exceed 500ns gain %.3f",
			hIdeal.AutoEDPGain, hReal.AutoEDPGain)
	}
	if hIdeal.AutoTimeLoss > hReal.AutoTimeLoss {
		t.Errorf("zero-latency time loss %.3f should be below 500ns loss %.3f",
			hIdeal.AutoTimeLoss, hReal.AutoTimeLoss)
	}
}

func TestFig4Profiles(t *testing.T) {
	data := collect(t)
	m := rt.DefaultMachine()
	for _, name := range []string{"Cholesky", "FFT", "LibQ"} {
		var d *AppData
		for _, x := range data {
			if x.Name == name {
				d = x
			}
		}
		if d == nil {
			t.Fatalf("no data for %s", name)
		}
		p := Fig4(d, m)
		if len(p.CAE) != 6 || len(p.Auto) != 6 || len(p.Manual) != 6 {
			t.Fatalf("%s: expected 6 frequency points per series", name)
		}
		// CAE has no prefetch component; DAE versions do.
		for _, pt := range p.CAE {
			if pt.Prefetch != 0 {
				t.Errorf("%s CAE prefetch time should be 0", name)
			}
		}
		for _, pt := range p.Auto {
			if pt.Prefetch <= 0 {
				t.Errorf("%s Auto DAE should spend time prefetching", name)
			}
		}
		// CAE total time decreases monotonically with frequency.
		for i := 1; i < len(p.CAE); i++ {
			if p.CAE[i].Total() >= p.CAE[i-1].Total() {
				t.Errorf("%s CAE time should fall as f rises (points %d,%d)", name, i-1, i)
			}
		}
		// DAE task (execute) time decreases with execute frequency while the
		// prefetch time stays constant (access pinned at fmin).
		first, last := p.Auto[0], p.Auto[len(p.Auto)-1]
		if last.Task >= first.Task {
			t.Errorf("%s Auto DAE execute time should fall with f", name)
		}
		if math.Abs(last.Prefetch-first.Prefetch) > 1e-9*first.Prefetch {
			t.Errorf("%s Auto DAE prefetch time should not depend on execute f", name)
		}
		// Energy at fmax exceeds energy at intermediate frequencies for the
		// CAE series on at least one app (the V² effect) — checked globally
		// in Fig3; here just require positive totals.
		for _, pt := range append(append([]Fig4Point{}, p.CAE...), p.Auto...) {
			if pt.TotalE() <= 0 || pt.Total() <= 0 {
				t.Errorf("%s: non-positive profile point", name)
			}
		}
		out := FormatFig4(p)
		if !strings.Contains(out, name) || !strings.Contains(out, "Auto DAE") {
			t.Error("formatted Fig4 missing content")
		}
	}
}

// TestCholeskyAutoVsManualStory reproduces §6.2.1: the automatically
// generated Cholesky access version prefetches more data than the expert's
// (longer access phase) but ends with equal-or-better energy and EDP.
func TestCholeskyAutoVsManualStory(t *testing.T) {
	data := collect(t)
	var d *AppData
	for _, x := range data {
		if x.Name == "Cholesky" {
			d = x
		}
	}
	m := rt.DefaultMachine()
	man := rt.Evaluate(d.Manual, m, rt.PolicyOptimalEDP)
	auto := rt.Evaluate(d.Auto, m, rt.PolicyOptimalEDP)
	t.Logf("Cholesky manual: %s", man)
	t.Logf("Cholesky auto:   %s", auto)
	if auto.AccessTime <= man.AccessTime {
		t.Errorf("auto access phase (%.4g) should be longer than manual (%.4g): it prefetches more",
			auto.AccessTime, man.AccessTime)
	}
	if auto.EDP > man.EDP*1.05 {
		t.Errorf("auto EDP %.4g should be competitive with manual %.4g", auto.EDP, man.EDP)
	}
}

func TestFormatStrategies(t *testing.T) {
	data := collect(t)
	out := FormatStrategies(data)
	for _, want := range []string{"affine", "skeleton", "LU", "FFT"} {
		if !strings.Contains(out, want) {
			t.Errorf("strategies report missing %q", want)
		}
	}
}

func TestCSVOutputs(t *testing.T) {
	data := collect(t)
	m := rt.DefaultMachine()

	var buf bytes.Buffer
	if err := WriteTable1CSV(&buf, Table1(data, m)); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("table1 csv unparsable: %v", err)
	}
	if len(recs) != 8 || len(recs[0]) != 9 {
		t.Errorf("table1 csv shape %dx%d, want 8x9 (policy EDP columns included)", len(recs), len(recs[0]))
	}

	rows := Fig3(data, m)
	for _, metric := range []string{"Time", "Energy", "EDP"} {
		buf.Reset()
		if err := WriteFig3CSV(&buf, rows, metric); err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Fatalf("fig3 %s csv unparsable: %v", metric, err)
		}
		if len(recs) != 9 || len(recs[0]) != 6 {
			t.Errorf("fig3 %s csv shape %dx%d, want 9x6", metric, len(recs), len(recs[0]))
		}
	}

	buf.Reset()
	if err := WriteFig4CSV(&buf, Fig4(data[1], m)); err != nil {
		t.Fatal(err)
	}
	recs, err = csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatalf("fig4 csv unparsable: %v", err)
	}
	if len(recs) != 1+3*6 {
		t.Errorf("fig4 csv rows = %d, want 19", len(recs))
	}
}

func TestCollectRefined(t *testing.T) {
	app, err := bench.AppByName("Cigar")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Collect(app, rt.DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	refined, err := CollectRefined(app, rt.DefaultTraceConfig(), dae.DefaultRefine(), 4)
	if err != nil {
		t.Fatal(err)
	}
	m := rt.DefaultMachine()
	mp := rt.Evaluate(plain.Auto, m, rt.PolicyOptimalEDP)
	mr := rt.Evaluate(refined.Auto, m, rt.PolicyOptimalEDP)
	// Refinement prunes the resident-table prefetches of ga_eval, so the
	// refined access phases are cheaper and EDP does not get worse.
	if mr.AccessTime >= mp.AccessTime {
		t.Errorf("refined access time %.4g should undercut plain %.4g", mr.AccessTime, mp.AccessTime)
	}
	if mr.EDP > mp.EDP*1.01 {
		t.Errorf("refined EDP %.4g should not regress plain %.4g", mr.EDP, mp.EDP)
	}
}

// TestDeterminism: two independent collections must produce identical
// Figure 3 numbers — the whole pipeline (compilation, generation, tracing,
// scheduling, models) is deterministic by construction.
func TestDeterminism(t *testing.T) {
	app, err := bench.AppByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	m := rt.DefaultMachine()
	run := func() Fig3Row {
		d, err := Collect(app, rt.DefaultTraceConfig())
		if err != nil {
			t.Fatal(err)
		}
		return Fig3([]*AppData{d}, m)[0]
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two collections differ:\n%+v\n%+v", a, b)
	}
}
