package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dae/internal/fault"
	"dae/internal/fault/inject"

	"dae/internal/bench"
	"dae/internal/dae"
	"dae/internal/rt"
)

// TestTraceCacheDiskRoundtrip: a cache directory written by one cache
// instance serves a fresh instance (a later process) without re-simulation,
// reproducing identical traces and the Table 1 / strategy summaries.
func TestTraceCacheDiskRoundtrip(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()

	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("cache dir holds %d entries, want 3 (one per run)", len(entries))
	}

	// A fresh cache over the same directory simulates a new process.
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.CAE, second.CAE) ||
		!reflect.DeepEqual(first.Manual, second.Manual) ||
		!reflect.DeepEqual(first.Auto, second.Auto) {
		t.Error("disk-loaded traces differ from the originals")
	}
	if len(second.Results) != len(first.Results) {
		t.Fatalf("disk-loaded results have %d tasks, want %d", len(second.Results), len(first.Results))
	}
	for name, r := range first.Results {
		lr := second.Results[name]
		if lr == nil {
			t.Fatalf("missing loaded result for %s", name)
		}
		if lr.Strategy != r.Strategy || lr.AffineLoops != r.AffineLoops ||
			lr.TotalLoops != r.TotalLoops || lr.Classes != r.Classes ||
			lr.MergedNests != r.MergedNests || lr.NConvUn != r.NConvUn ||
			lr.NOrig != r.NOrig || lr.Reason != r.Reason {
			t.Errorf("%s: loaded summary differs from original", name)
		}
	}

	// The loaded data must feed the downstream evaluation identically.
	m := rt.DefaultMachine()
	a := Fig3([]*AppData{first}, m)
	b := Fig3([]*AppData{second}, m)
	if !reflect.DeepEqual(a, b) {
		t.Error("Fig3 rows differ between fresh and disk-loaded data")
	}
	if FormatStrategies([]*AppData{first}) != FormatStrategies([]*AppData{second}) {
		t.Error("strategy report differs between fresh and disk-loaded data")
	}
}

// TestTraceCacheFreshEntryLoads: every entry a collection just wrote must
// load back with a valid checksum. Guards against checksumming a different
// byte form than the one stored (the envelope marshal re-compacts the
// embedded raw trace) — that bug silently degraded every warm run to a full
// re-simulation, which no output-equality test can catch.
func TestTraceCacheFreshEntryLoads(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)}); err != nil {
		t.Fatal(err)
	}
	tc := NewTraceCache(dir) // fresh instance: memory empty, disk only
	for _, kind := range []runKind{runCAE, runManual, runAuto} {
		key := runKey("LibQ", kind, cfg, nil)
		out, err := tc.load(key)
		if err != nil {
			t.Errorf("load(%s) failed on a just-written entry: %v", kind, err)
		} else if out == nil {
			t.Errorf("load(%s) missed a just-written entry", kind)
		}
	}
}

// TestTraceCacheCorruptEntry: unreadable cache files degrade to a miss and
// are overwritten, never an error.
func TestTraceCacheCorruptEntry(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.WriteFile(dir+"/"+e.Name(), []byte("not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)}); err != nil {
		t.Fatalf("corrupt cache entries must be treated as misses, got: %v", err)
	}
}

// TestRunKeyDistinguishesConfigs: the content key must change whenever a
// field that influences the trace changes.
func TestRunKeyDistinguishesConfigs(t *testing.T) {
	base := rt.DefaultTraceConfig()
	keys := map[string]string{}
	add := func(label, key string) {
		for prev, pk := range keys {
			if pk == key {
				t.Errorf("key collision between %q and %q: %s", prev, label, key)
			}
		}
		keys[label] = key
	}
	add("base", runKey("LU", runAuto, base, nil))
	add("other-app", runKey("FFT", runAuto, base, nil))
	add("other-kind", runKey("LU", runCAE, base, nil))
	c := base
	c.Cores = 8
	add("cores", runKey("LU", runAuto, c, nil))
	c = base
	c.Hierarchy.L1.SizeBytes *= 2
	add("l1", runKey("LU", runAuto, c, nil))
	c = base
	c.Place = rt.PlaceLeastLoaded
	add("place", runKey("LU", runAuto, c, nil))
	r := &RefineSpec{PerTask: 4}
	add("refined", runKey("LU", runAuto, base, r))
	r2 := &RefineSpec{PerTask: 8}
	add("refined-8", runKey("LU", runAuto, base, r2))

	// Refinement must NOT influence the coupled/manual keys: those runs are
	// identical with and without it, which is what the refined experiment's
	// cache reuse relies on.
	if runKey("LU", runCAE, base, r) != runKey("LU", runCAE, base, nil) {
		t.Error("refine options must not key the coupled run")
	}
	if runKey("LU", runManual, base, r) != runKey("LU", runManual, base, nil) {
		t.Error("refine options must not key the manual run")
	}
}

// TestTraceCacheChecksumMismatch: an envelope whose content no longer
// matches its recorded checksum — valid JSON, silently rotted payload — is
// classified fault.ErrCacheCorrupt by load and degraded to a cache miss;
// the recollection reproduces the original traces exactly.
func TestTraceCacheChecksumMismatch(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}

	// Replace each entry's checksum with a wrong-but-well-formed value, so
	// the JSON still parses and only the content validation can catch it.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatal(err)
		}
		env["sum"] = strings.Repeat("ab", 32)
		keys = append(keys, env["key"].(string))
		nb, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nb, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// load must classify the damage as cache corruption...
	tc := NewTraceCache(dir)
	for _, key := range keys {
		if _, err := tc.load(key); !errors.Is(err, fault.ErrCacheCorrupt) {
			t.Errorf("load(%q) = %v, want ErrCacheCorrupt", key, err)
		}
	}

	// ...and the collection path must treat it as a miss and re-simulate to
	// identical traces.
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatalf("checksum mismatch must degrade to a miss, got: %v", err)
	}
	if !reflect.DeepEqual(first.Auto, second.Auto) || !reflect.DeepEqual(first.CAE, second.CAE) {
		t.Error("recollected traces differ from the originals")
	}
}

// TestTraceCacheTruncatedEntry: a torn write (file cut mid-envelope) is
// also a clean miss, via the injection harness's corruption helper.
func TestTraceCacheTruncatedEntry(t *testing.T) {
	app, err := bench.AppByName("LibQ")
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	dir := t.TempDir()
	first, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	n, err := inject.CorruptCacheDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("corrupted %d entries, want 3", n)
	}
	second, err := CollectWith(context.Background(), app, cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatalf("truncated cache entries must be treated as misses, got: %v", err)
	}
	if !reflect.DeepEqual(first.Auto, second.Auto) {
		t.Error("recollected traces differ from the originals")
	}
}

// smallOutput builds a minimal but valid cache entry for write-path tests.
func smallOutput(t *testing.T) *runOutput {
	t.Helper()
	return &runOutput{Trace: &rt.Trace{Workload: "write-test", Cores: 1}}
}

// TestTraceCacheWriteRetry: a transient failure of the first disk-save
// attempt is retried, and the retried write lands on disk (a fresh cache
// instance — a later process — gets a hit).
func TestTraceCacheWriteRetry(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	failed := 0
	tc.saveFault = func(attempt int) error {
		if attempt == 0 {
			failed++
			return errors.New("transient write failure")
		}
		return nil
	}
	tc.put("retry-key", smallOutput(t))
	if failed != 1 {
		t.Fatalf("first save attempt consulted %d times, want 1", failed)
	}
	if _, ok := NewTraceCache(dir).get("retry-key"); !ok {
		t.Fatal("retried write did not persist the entry")
	}
}

// TestTraceCacheWriteFailureDegradesToMemory: when every save attempt
// fails, the entry stays usable in memory and nothing lands on disk — the
// cache degrades instead of failing the collection.
func TestTraceCacheWriteFailureDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	attempts := 0
	tc.saveFault = func(int) error {
		attempts++
		return errors.New("disk gone")
	}
	tc.put("doomed-key", smallOutput(t))
	if attempts != saveAttempts {
		t.Fatalf("save tried %d times, want %d", attempts, saveAttempts)
	}
	if _, ok := tc.get("doomed-key"); !ok {
		t.Error("entry lost from memory after disk-save failure")
	}
	if _, ok := NewTraceCache(dir).get("doomed-key"); ok {
		t.Error("failed write left a disk entry")
	}
}

// TestTraceCachePutRace: two goroutines racing put on the same key must not
// corrupt the entry (write-then-rename keeps each write atomic). Run under
// -race in tier 1.
func TestTraceCachePutRace(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	out := smallOutput(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc.put("raced-key", out)
		}()
	}
	wg.Wait()
	fresh := NewTraceCache(dir)
	got, ok := fresh.get("raced-key")
	if !ok {
		t.Fatal("racing puts lost the entry")
	}
	if got.Trace == nil || got.Trace.Workload != "write-test" {
		t.Fatalf("racing puts corrupted the entry: %+v", got)
	}
}

// legacyEnvelope is the envelope file the trace cache wrote when save
// re-coded the trace: marshal, unmarshal, checksum the round-tripped form,
// marshal again.
func legacyEnvelope(t *testing.T, key string, out *runOutput) []byte {
	t.Helper()
	raw, err := rt.EncodeTrace(out.Trace)
	if err != nil {
		t.Fatal(err)
	}
	env := envelope{Version: cacheVersion, Key: key, Trace: raw}
	if out.Results != nil {
		env.Results = make(map[string]ResultSummary, len(out.Results))
		for name, r := range out.Results {
			env.Results[name] = summarizeResult(r)
		}
	}
	pre, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var stored envelope
	if err := json.Unmarshal(pre, &stored); err != nil {
		t.Fatal(err)
	}
	if env.Sum, err = contentSum(stored.Trace, stored.Results); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTraceCacheEnvelopeMatchesLegacyEncoding: save writes the envelope
// file, and so the Sum, the former round trips wrote, for traces and
// results holding whitespace, HTML-significant characters, U+2028/U+2029
// and non-ASCII text, and for an empty results map; and the entries load
// back.
func TestTraceCacheEnvelopeMatchesLegacyEncoding(t *testing.T) {
	dir := t.TempDir()
	tc := NewTraceCache(dir)
	rec := func(name string) rt.TaskRecord {
		r := rt.TaskRecord{Name: name, HasAccess: true, FaultKind: name}
		r.ExecWork.Counts.Loads = 12
		r.ExecWork.Mem.At[0][1] = 3
		return r
	}
	for i, s := range []string{
		"plain",
		" spaced\tout\r\n ",
		`<a href="x">&amp;</a>`,
		"line\u2028para\u2029end",
		"café \U0001F600 ÿ",
	} {
		out := &runOutput{Trace: &rt.Trace{Workload: s, Decoupled: i%2 == 0, Cores: 2, NumBatches: 1,
			Records:     []rt.TaskRecord{rec(s), rec("t")},
			Quarantined: map[string]string{s: s}}}
		switch i % 3 {
		case 1:
			out.Results = map[string]*dae.Result{}
		case 2:
			out.Results = map[string]*dae.Result{
				s:   {Strategy: dae.StrategySkeleton, Reason: s, TotalLoops: 3, NConvUn: 7},
				"t": {Reason: "none: " + s},
			}
		}
		key := fmt.Sprintf("v%d;app=<%s>;kind=%d", cacheVersion, s, i)
		tc.put(key, out)
		file, err := os.ReadFile(tc.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyEnvelope(t, key, out); !bytes.Equal(file, want) {
			t.Errorf("%q: envelope file differs from the legacy encoding:\n got %s\nwant %s", s, file, want)
		}
		if got, err := NewTraceCache(dir).load(key); err != nil || got == nil || !reflect.DeepEqual(got.Trace, out.Trace) {
			t.Errorf("%q: entry does not load back (%v)", s, err)
		}
	}
}

// TestCacheLoadedAppDataEncodesAsFresh: a trace set re-encoded from a
// trace-cache load has the bytes of the fresh collection's encoding, for
// every app, so a daed artifact does not depend on the cache's state. The
// loaded results carry has_access although they have no access version.
func TestCacheLoadedAppDataEncodesAsFresh(t *testing.T) {
	dir := t.TempDir()
	cfg := rt.DefaultTraceConfig()
	fresh, err := CollectAllWith(context.Background(), cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := CollectAllWith(context.Background(), cfg, CollectOptions{Cache: NewTraceCache(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 7 || len(loaded) != len(fresh) {
		t.Fatalf("collected %d and %d apps, want 7", len(fresh), len(loaded))
	}
	access := 0
	for i, d := range fresh {
		for name, r := range d.Results {
			if (r.Access != nil) != (r.Strategy != dae.StrategyNone) {
				t.Fatalf("%s/%s: access version %v with strategy %v", d.Name, name, r.Access != nil, r.Strategy)
			}
			if l := loaded[i].Results[name]; l == nil || l.Access != nil {
				t.Fatalf("%s/%s: not a summary-only result from the cache", d.Name, name)
			}
			if r.Access != nil {
				access++
			}
		}
		want, err := json.Marshal(mustEncode(t, d))
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(mustEncode(t, loaded[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: the cache-loaded trace set encodes differently from the fresh one", d.Name)
		}
	}
	if access == 0 {
		t.Fatal("no task has an access version: the has_access check saw nothing")
	}
}

func mustEncode(t *testing.T, d *AppData) *AppDataWire {
	t.Helper()
	w, err := EncodeAppData(d)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
