package eval

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dae/internal/dae"
	"dae/internal/fault"
	"dae/internal/flight"
	"dae/internal/rt"
)

// TraceCache memoizes collected traces, content-keyed by (app, run kind,
// trace configuration, refinement options). Every daebench experiment that
// needs the same trace — table1, fig3, fig4, zerolat all evaluate the same
// frequency-independent profile — then shares one collection, and the
// refined re-trace reuses the coupled and manual runs it does not change.
//
// The cache is safe for concurrent use. With a non-empty directory, entries
// additionally persist to disk as versioned JSON envelopes, so separate
// daebench invocations skip re-simulation entirely.
type TraceCache struct {
	dir string
	mu  sync.Mutex
	mem map[string]*runOutput
	// flights runs one collection of an app at a time (see resolve): a
	// concurrent collection waits for it and takes the runs it shares
	// instead of re-running the simulation and re-writing the envelopes.
	flights flight.Group[string, *groupOutput]
	// saveFault, when non-nil, is consulted before each disk-save attempt
	// with the 0-based attempt number; a non-nil return fails that attempt.
	// Tests use it to exercise the write-retry path.
	saveFault func(attempt int) error
}

// NewTraceCache returns a cache. dir may be empty for a purely in-memory
// cache; otherwise entries are persisted under dir (created on first put).
func NewTraceCache(dir string) *TraceCache {
	return &TraceCache{dir: dir, mem: make(map[string]*runOutput)}
}

// runKey builds the content key of one traced run. The refinement options
// only affect the compiler-generated decoupled run, so the other kinds share
// entries between plain and refined collections.
func runKey(app string, kind runKind, cfg rt.TraceConfig, refine *RefineSpec) string {
	key := fmt.Sprintf("v%d;app=%s;kind=%d;%s", cacheVersion, app, kind, cfg.Fingerprint())
	if kind == runAuto && refine != nil {
		h := refine.Options.Hierarchy
		key += fmt.Sprintf(";refine=%g/%d-%d-%d/%d-%d-%d/%d-%d-%d/%d",
			refine.Options.MinMissRatio,
			h.L1.SizeBytes, h.L1.LineBytes, h.L1.Assoc,
			h.L2.SizeBytes, h.L2.LineBytes, h.L2.Assoc,
			h.L3.SizeBytes, h.L3.LineBytes, h.L3.Assoc,
			refine.PerTask)
	}
	return key
}

// cacheVersion is bumped whenever the trace semantics or the envelope layout
// change, invalidating stale on-disk entries. v2 added the content checksum
// and the MaxSteps field to the TraceConfig fingerprint; v3 added the
// supervision fields (trace format v2, Degrade in the fingerprint); v4 marks
// the bytecode execution engine becoming the tracer (it traces
// byte-identically to the tree engine it replaced; the bump just retires
// entries written before the differential tests enforced that).
const cacheVersion = 4

// saveAttempts is how many times a failed envelope write is tried in total;
// disk writes are best-effort (the cache degrades to memory-only) but
// transient errors — a full temp dir being cleaned, a racing rename —
// deserve one more try before giving up.
const saveAttempts = 2

// envelope is the on-disk form of one cache entry. Sum is the hex SHA-256
// of the trace payload plus the serialized results (ResultSummary, the
// shared persistable projection of dae.Result), so bit rot or a torn
// write anywhere in the content is detected on load and degraded to a cache
// miss rather than silently feeding a damaged trace into the evaluation.
type envelope struct {
	Version int                      `json:"version"`
	Key     string                   `json:"key"`
	Sum     string                   `json:"sum"`
	Trace   json.RawMessage          `json:"trace"`
	Results map[string]ResultSummary `json:"results,omitempty"`
}

// contentSum computes the envelope's content checksum over the trace bytes
// and the (deterministically marshaled) results map.
func contentSum(trace json.RawMessage, results map[string]ResultSummary) (string, error) {
	var rb []byte
	if results != nil {
		// encoding/json sorts map keys, so this is deterministic.
		var err error
		if rb, err = json.Marshal(results); err != nil {
			return "", err
		}
	}
	return sumOf(trace, rb), nil
}

// sumOf is the checksum of a stored trace and its marshaled results.
func sumOf(trace, results []byte) string {
	h := sha256.New()
	h.Write(trace)
	h.Write(results)
	return hex.EncodeToString(h.Sum(nil))
}

// appFlightKey names the flight of every collection of app under cfg,
// plain or refined, whichever kinds it needs.
func appFlightKey(app string, cfg rt.TraceConfig) string {
	return fmt.Sprintf("v%d;app=%s;%s", cacheVersion, app, cfg.Fingerprint())
}

// resolve returns the runs of kinds stored under keys: the ones the cache
// holds are loaded, and collect traces the missing ones under the app's
// flight (appFlightKey). One flight per app means concurrent collections
// of an app — two goroutines, two experiments, two server requests sharing
// a cache — run one after the other: a caller that finds a flight in the
// air waits for it and takes from its result every run stored under the
// caller's own key, so each key is simulated and written to disk once. A
// kind the flight did not cover (it traced another key, such as the
// unrefined Auto run, or did not need the kind) or left with a timeout
// scoped to its leader is resolved again, from the cache first, while ctx
// is alive. collect runs under the flight's context, which is canceled only
// when every waiting caller has given up; it must answer (output or error)
// for every kind it is given.
func (tc *TraceCache) resolve(ctx context.Context, flightKey string, keys [numRunKinds]string, kinds []runKind, collect func(ctx context.Context, missing []runKind) *groupOutput) *groupOutput {
	g := &groupOutput{keys: keys}
	pending := tc.fill(g, kinds)
	for len(pending) > 0 {
		want := pending
		res, err, leader := tc.flights.Do(ctx, flightKey, func(ctx context.Context) (*groupOutput, error) {
			r := &groupOutput{keys: keys}
			if missing := tc.fill(r, want); len(missing) > 0 {
				traced := collect(ctx, missing)
				for _, k := range missing {
					r.outs[k], r.errs[k] = traced.outs[k], traced.errs[k]
				}
			}
			return r, nil
		})
		if err != nil {
			// ctx died while waiting, or the collection panicked.
			return g.failAll(pending, err)
		}
		var again []runKind
		for _, k := range want {
			covered := res.keys[k] == keys[k] && (res.outs[k] != nil || res.errs[k] != nil)
			if !leader && (!covered || errors.Is(res.errs[k], fault.ErrTimeout)) {
				again = append(again, k)
				continue
			}
			g.outs[k], g.errs[k] = res.outs[k], res.errs[k]
		}
		pending = tc.fill(g, again)
	}
	return g
}

// fill loads into g each of kinds the cache holds under g.keys and returns
// the kinds it lacks.
func (tc *TraceCache) fill(g *groupOutput, kinds []runKind) []runKind {
	var missing []runKind
	for _, k := range kinds {
		if out, ok := tc.get(g.keys[k]); ok {
			g.outs[k] = out
		} else {
			missing = append(missing, k)
		}
	}
	return missing
}

// get returns the entry for key, consulting memory first and then disk.
func (tc *TraceCache) get(key string) (*runOutput, bool) {
	tc.mu.Lock()
	out, ok := tc.mem[key]
	tc.mu.Unlock()
	if ok {
		return out, true
	}
	if tc.dir == "" {
		return nil, false
	}
	out, err := tc.load(key)
	if err != nil || out == nil {
		// Unreadable, stale, or corrupt (fault.ErrCacheCorrupt) entries are
		// treated as misses; the fresh collection overwrites them.
		return nil, false
	}
	tc.mu.Lock()
	tc.mem[key] = out
	tc.mu.Unlock()
	return out, true
}

// put stores the entry in memory and, when persistence is enabled, on disk.
// Disk write failures are retried once and then non-fatal: the cache
// degrades to memory-only.
func (tc *TraceCache) put(key string, out *runOutput) {
	tc.mu.Lock()
	tc.mem[key] = out
	tc.mu.Unlock()
	if tc.dir == "" {
		return
	}
	// Save failures are treated as retryable infra faults, with the backoff
	// jitter seeded by the key so two workers retrying distinct entries (or
	// racing the same one) do not stay in lockstep.
	sum := sha256.Sum256([]byte(key))
	backoff := fault.Backoff(time.Millisecond, binary.LittleEndian.Uint64(sum[:8]))
	attempt := 0
	_ = fault.Retry(context.Background(), saveAttempts, backoff, func() error {
		a := attempt
		attempt++
		if tc.saveFault != nil {
			if err := tc.saveFault(a); err != nil {
				return fault.MarkRetryable(err)
			}
		}
		return fault.MarkRetryable(tc.save(key, out))
	})
}

// path maps a key to its cache file.
func (tc *TraceCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(tc.dir, hex.EncodeToString(sum[:16])+".json")
}

func (tc *TraceCache) load(key string) (*runOutput, error) {
	b, err := os.ReadFile(tc.path(key))
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		// A torn write leaves unparseable JSON: classify as corruption.
		return nil, fault.Wrap(fault.KindCacheCorrupt, err)
	}
	if env.Version != cacheVersion || env.Key != key {
		return nil, nil
	}
	sum, err := contentSum(env.Trace, env.Results)
	if err != nil {
		return nil, err
	}
	if sum != env.Sum {
		return nil, fault.New(fault.KindCacheCorrupt,
			"cache entry %s: checksum mismatch (have %.12s, want %.12s)", tc.path(key), env.Sum, sum)
	}
	tr, err := rt.DecodeTrace(env.Trace)
	if err != nil {
		return nil, err
	}
	out := &runOutput{Trace: tr}
	if env.Results != nil {
		out.Results = make(map[string]*dae.Result, len(env.Results))
		for name, rj := range env.Results {
			out.Results[name] = rj.result()
		}
	}
	return out, nil
}

func (tc *TraceCache) save(key string, out *runOutput) error {
	b, err := encodeEnvelope(key, out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(tc.dir, 0o755); err != nil {
		return err
	}
	// Write-then-rename keeps the final path atomic: a concurrent reader (or
	// another process sharing the directory) sees either the previous
	// complete envelope or the new one, never a partial file, and a crash
	// mid-write leaves only a uniquely named temp file behind. The deferred
	// remove reaps that temp on every failure path — after a successful
	// rename the name no longer exists and the remove is a no-op.
	tmp, err := os.CreateTemp(tc.dir, "entry-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmpName, tc.path(key))
}

// encodeEnvelope returns the envelope file of one entry, byte for byte what
// json.Marshal gives for its envelope, without re-coding the trace: the
// stored trace is the compact, HTML-escaped form a marshaled RawMessage
// takes, which is EncodeTrace's output (json.Marshal's encoding) without
// the encoder's newline, and Sum covers it and the marshaled results, as
// load recomputes them. (A results entry whose Reason held invalid UTF-8
// would re-marshal differently after a load and read as corrupt; the
// compiler's reasons are ASCII.)
func encodeEnvelope(key string, out *runOutput) ([]byte, error) {
	raw, err := rt.EncodeTrace(out.Trace)
	if err != nil {
		return nil, err
	}
	trace := bytes.TrimSuffix(raw, []byte("\n"))
	var results []byte
	if len(out.Results) > 0 { // omitempty: no member, and nothing summed
		rs := make(map[string]ResultSummary, len(out.Results))
		for name, r := range out.Results {
			rs[name] = summarizeResult(r)
		}
		if results, err = json.Marshal(rs); err != nil {
			return nil, err
		}
	}
	k, _ := json.Marshal(key) // a string always marshals
	b := make([]byte, 0, len(trace)+len(results)+len(k)+128)
	b = fmt.Appendf(b, `{"version":%d,"key":%s,"sum":"%s","trace":`, cacheVersion, k, sumOf(trace, results))
	b = append(b, trace...)
	if results != nil {
		b = append(append(b, `,"results":`...), results...)
	}
	return append(b, '}'), nil
}
