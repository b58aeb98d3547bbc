package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dae/internal/bench"
	"dae/internal/eval"
	"dae/internal/mem"
	"dae/internal/rt"
)

// Every check below compares an op's output with a computation made apart
// from the code path under test (a single-worker set-up reproduction, an
// in-process collection, the Go reference, the static analysis) or with a
// property the method must have. None compares with a stored copy of
// earlier output.

// envelopesPerReproduction is the number of trace-cache entries one cold
// reproduction writes: the coupled, manual-DAE and compiler-DAE
// runs of every app, plus the refined compiler-DAE run.
var envelopesPerReproduction = 4 * len(bench.Apps())

// checkReport requires a rendered report to be byte-identical to the
// reference, naming the first differing line.
func checkReport(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Errorf("report differs from the reference at line %d:\n got %q\nwant %q", i+1, g[i], w[i])
		}
	}
	return fmt.Errorf("report has %d lines, the reference %d", len(g), len(w))
}

// checkAccessStoreFree requires every access phase to record zero stores,
// in the interpreter's counts and in the cache hierarchy alike: access
// versions are store-free by construction.
func checkAccessStoreFree(data []*eval.AppData) error {
	for _, d := range data {
		for _, tr := range []*rt.Trace{d.CAE, d.Manual, d.Auto} {
			for i, rec := range tr.Records {
				if !rec.HasAccess {
					continue
				}
				if n, h := rec.AccessWork.Counts.Stores, rec.AccessWork.Mem.Total(mem.Store); n != 0 || h != 0 {
					return fmt.Errorf("%s %s record %d (%s): access phase stores %d times (%d in the hierarchy)",
						d.Name, runName(tr), i, rec.Name, n, h)
				}
			}
		}
	}
	return nil
}

// checkHierarchyCounts requires, for every phase, the hierarchy's access
// counts per kind to equal the interpreter's loads, stores and prefetches:
// every memory instruction reaches the cache simulator exactly once.
func checkHierarchyCounts(data []*eval.AppData) error {
	for _, d := range data {
		for _, tr := range []*rt.Trace{d.CAE, d.Manual, d.Auto} {
			for i, rec := range tr.Records {
				phases := []struct {
					name string
					on   bool
					c    [3]int64
					st   mem.Stats
				}{
					{"access", rec.HasAccess, [3]int64{rec.AccessWork.Counts.Loads, rec.AccessWork.Counts.Stores, rec.AccessWork.Counts.Prefetches}, rec.AccessWork.Mem},
					{"execute", true, [3]int64{rec.ExecWork.Counts.Loads, rec.ExecWork.Counts.Stores, rec.ExecWork.Counts.Prefetches}, rec.ExecWork.Mem},
				}
				for _, p := range phases {
					if !p.on {
						continue
					}
					for k, kind := range []mem.AccessKind{mem.Load, mem.Store, mem.Prefetch} {
						if h := p.st.Total(kind); h != p.c[k] {
							return fmt.Errorf("%s %s record %d (%s) %s phase: hierarchy saw %d accesses of kind %d, interpreter counted %d",
								d.Name, runName(tr), i, rec.Name, p.name, h, kind, p.c[k])
						}
					}
				}
			}
		}
	}
	return nil
}

// checkPolicyOrder requires the per-phase EDP-optimal policy to be no worse
// than min/max on both decoupled builds and no worse than fixed fmax on the
// coupled build.
func checkPolicyOrder(data []*eval.AppData, m rt.Machine) error {
	for _, d := range data {
		pairs := []struct {
			run  string
			tr   *rt.Trace
			than rt.FreqPolicy
		}{
			{"manual-dae", d.Manual, rt.PolicyMinMax},
			{"compiler-dae", d.Auto, rt.PolicyMinMax},
			{"coupled", d.CAE, rt.PolicyFixed},
		}
		for _, p := range pairs {
			opt := rt.Evaluate(p.tr, m, rt.PolicyOptimalEDP).EDP
			other := rt.Evaluate(p.tr, m, p.than).EDP
			if !(opt <= other) {
				return fmt.Errorf("%s %s: optimal-EDP policy EDP %g exceeds policy %d EDP %g", d.Name, p.run, opt, p.than, other)
			}
		}
	}
	return nil
}

// checkWCEC requires the static WCEC bounds to cover every observed phase.
func checkWCEC(data []*eval.AppData, m rt.Machine) error {
	rep, err := eval.WCECSoundness(data, m)
	if err != nil {
		return err
	}
	if v := rep.Violations(); v != 0 {
		return fmt.Errorf("WCEC soundness gate: %d violations", v)
	}
	return nil
}

// appDigest identifies an app's three traces and its per-task generation
// summaries, so checks can compare collections without keeping a reference
// collection alive between ops.
type appDigest [sha256.Size]byte

// digestOf hashes d's traces with the standard JSON encoding of rt.Trace
// (not the trace cache's or the wire's codec) and the Table 1 fields of its
// results, in task-name order.
func digestOf(d *eval.AppData) (appDigest, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	fmt.Fprintf(h, "%s\n", d.Name)
	for _, tr := range []*rt.Trace{d.CAE, d.Manual, d.Auto} {
		if err := enc.Encode(tr); err != nil {
			return appDigest{}, err
		}
	}
	names := make([]string, 0, len(d.Results))
	for name := range d.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := d.Results[name]
		fmt.Fprintf(h, "%s %d %d %d\n", name, r.Strategy, r.AffineLoops, r.TotalLoops)
	}
	var out appDigest
	h.Sum(out[:0])
	return out, nil
}

// digestsOf returns the digest of every app of data, in order.
func digestsOf(data []*eval.AppData) ([]appDigest, error) {
	out := make([]appDigest, len(data))
	for i, d := range data {
		var err error
		if out[i], err = digestOf(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runName names a trace's run kind for messages.
func runName(tr *rt.Trace) string {
	if tr.Decoupled {
		return "decoupled"
	}
	return "coupled"
}

// snapshotDir returns the FileInfo of every file of dir, by name; a missing
// dir is empty.
func snapshotDir(dir string) (map[string]os.FileInfo, error) {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]os.FileInfo{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]os.FileInfo, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		out[e.Name()] = info
	}
	return out, nil
}

// checkEnvelopesWritten requires a cold reproduction to have written
// exactly want trace envelopes and nothing else.
func checkEnvelopesWritten(after map[string]os.FileInfo, want int) error {
	n := 0
	for name := range after {
		if filepath.Ext(name) != ".json" {
			return fmt.Errorf("trace cache holds a stray file %s", name)
		}
		n++
	}
	if n != want {
		return fmt.Errorf("trace cache holds %d envelopes, want %d", n, want)
	}
	return nil
}

// dirSize returns the number of files in dir and their total size in KB.
func dirSize(dir string) (int, float64, error) {
	snap, err := snapshotDir(dir)
	if err != nil {
		return 0, 0, err
	}
	var b int64
	for _, s := range snap {
		b += s.Size()
	}
	return len(snap), float64(b) / 1024, nil
}

// checkSimReport requires a simulate response's report to equal the report
// rendered from the in-process collection.
func checkSimReport(app string, got, want string) error {
	if got != want {
		return fmt.Errorf("simulate %s: report differs from the in-process rendering", app)
	}
	return nil
}

// checkPurity requires every task's purity line of a compile response to
// pass (or to state that the task has no access version).
func checkPurity(app, purity string) error {
	lines := strings.Split(strings.TrimRight(purity, "\n"), "\n")
	if purity == "" {
		return fmt.Errorf("compile %s: no purity lines", app)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "task @") {
			return fmt.Errorf("compile %s: unexpected purity line %q", app, l)
		}
		if !strings.Contains(l, ": purity PASS (") && !strings.Contains(l, ": no access version (") {
			return fmt.Errorf("compile %s: %q", app, l)
		}
	}
	return nil
}

// checkTraceData requires a trace response, decoded, to carry exactly the
// traces and generation results of the in-process collection whose digest
// is want.
func checkTraceData(got *eval.AppData, want appDigest) error {
	d, err := digestOf(got)
	if err != nil {
		return err
	}
	if d != want {
		return fmt.Errorf("trace %s: decoded traces or results differ from the in-process collection", got.Name)
	}
	return nil
}

// checkTable1 requires Table 1 computed from a decoded trace response to
// equal want, the Table 1 of the in-process collection.
func checkTable1(got *eval.AppData, want string, m rt.Machine) error {
	if eval.FormatTable1(eval.Table1([]*eval.AppData{got}, m)) != want {
		return fmt.Errorf("trace %s: Table 1 of the decoded response differs from the local one", got.Name)
	}
	return nil
}
