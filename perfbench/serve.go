package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dae/internal/bench"
	"dae/internal/daed"
	"dae/internal/daed/store"
	"dae/internal/eval"
	"dae/internal/rt"
)

// Request classes: serve-trace's window sends trace hits, the traced run's
// class probe every class.
type class uint8

const (
	classSim     class = iota // simulate store hit
	classCompile              // compile store hit
	classTrace                // /v1/trace store hit
	classCold                 // simulate with a never-seen max_steps
	numClasses
)

var classNames = [numClasses]string{"simulate-hit", "compile-hit", "trace-hit", "cold-simulate"}

// serveApps are the apps of cmd/daeload's default traffic (-apps
// CG,FFT,LibQ), the only traffic statement in the repository; serve-trace
// requests their trace sets, a uniformly chosen app per request.
var serveApps = []string{"CG", "FFT", "LibQ"}

// coldApp is the app of the service-layer probes, whose cold key is a
// simulate request with a max_steps value far above any task's step count:
// a new content key whose report equals the unbudgeted one.
const coldApp = "CG"

// coldSteps returns the max_steps value of cold key i.
func coldSteps(seed uint64, i int) int64 {
	return 1<<40 + int64(seed%1_000_000)*1000 + int64(i)
}

// serveRef holds what daed responses are checked against, computed from
// in-process collections; the collections themselves are not kept.
type serveRef struct {
	sim        map[string]string // simulate report at the default configuration
	strategies map[string]string
	table1     map[string]string
	digest     map[string]appDigest
}

// newServeRef renders the reference reports from in-process collections.
func newServeRef(data []*eval.AppData) (*serveRef, error) {
	m := rt.DefaultMachine()
	ref := &serveRef{sim: map[string]string{}, strategies: map[string]string{}, table1: map[string]string{}, digest: map[string]appDigest{}}
	for _, d := range data {
		ref.sim[d.Name] = eval.FormatRunReport(d, m)
		ref.strategies[d.Name] = eval.FormatStrategies([]*eval.AppData{{Name: d.Name, Results: d.Results}})
		ref.table1[d.Name] = eval.FormatTable1(eval.Table1([]*eval.AppData{d}, m))
		var err error
		if ref.digest[d.Name], err = digestOf(d); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// collectReference collects apps in process, apart from the server.
func collectReference(ctx context.Context, apps []string) ([]*eval.AppData, error) {
	var out []*eval.AppData
	for _, name := range apps {
		app, err := bench.AppByName(name)
		if err != nil {
			return nil, err
		}
		d, err := eval.CollectWith(ctx, app, traceConfig(true), eval.CollectOptions{Workers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return nil, fmt.Errorf("reference collection of %s: %w", name, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// rig is an in-process daed server on a loopback listener.
type rig struct {
	dir  string
	srv  *daed.Server
	hs   *http.Server
	base string
	done chan error
}

// startRig serves a daed.Server with its store under dir.
func startRig(dir string) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, srv: daed.New(daed.Config{Dir: dir}), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	r.hs = &http.Server{Handler: r.srv}
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, nil
}

// close shuts the HTTP server and the daed server down and waits for both.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.srv.Close()
	return err
}

// newClient returns a client holding at most one connection.
func newClient(base string) (*daed.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &daed.Client{Base: base, HTTP: &http.Client{Transport: tr}}, tr
}

// prewarm requests every hit key of apps once, so that the measured
// requests are store hits: simulate, compile and trace. The apps are split
// over the clients.
func prewarm(ctx context.Context, r *rig, apps []string, clients int) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, tr := newClient(r.base)
			defer tr.CloseIdleConnections()
			for i := c; i < len(apps); i += clients {
				app := apps[i]
				if _, err := cl.Simulate(ctx, &daed.SimulateRequest{App: app}); err != nil {
					errs[c] = fmt.Errorf("prewarm simulate %s: %w", app, err)
					return
				}
				if _, err := cl.Compile(ctx, &daed.CompileRequest{App: app}); err != nil {
					errs[c] = fmt.Errorf("prewarm compile %s: %w", app, err)
					return
				}
				if _, err := cl.Trace(ctx, &daed.TraceRequest{App: app}); err != nil {
					errs[c] = fmt.Errorf("prewarm trace %s: %w", app, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupServe starts o.setupReps servers, each on a fresh store directory
// pre-warmed over apps, and keeps the last one running.
func setupServe(ctx context.Context, o options, apps []string, clients int) (*rig, []time.Duration, error) {
	var r *rig
	var times []time.Duration
	for i := 0; i < o.setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return nil, nil, err
			}
		}
		t := time.Now()
		var err error
		if r, err = startRig(filepath.Join(o.dir, fmt.Sprintf("store-%d", i))); err != nil {
			return nil, nil, err
		}
		if err := prewarm(ctx, r, apps, clients); err != nil {
			r.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t))
	}
	return r, times, nil
}

// sample is one request's client-observed latency, completion time in ms
// since the window's start, and class. It is kept small: a window keeps one
// per request, and they count in the run's RSS.
type sample struct {
	d     time.Duration
	endMs int32
	class class
}

// reqLog is the outcome of requests: a window's, one client's share of it,
// or a probe's.
type reqLog struct {
	// start is the time the samples' completion times count from.
	start     time.Time
	samples   []sample
	attempted int
	// failures are failed requests, problems failed output checks.
	failures, problems []string
	// checkD is the time spent checking responses.
	checkD time.Duration
	// table1Done marks the apps whose trace response went through the
	// Table 1 check, which is too slow to run on every response.
	table1Done map[string]bool
}

// add accumulates o into l.
func (l *reqLog) add(o *reqLog) {
	l.samples = append(l.samples, o.samples...)
	l.attempted += o.attempted
	l.failures = append(l.failures, o.failures...)
	l.problems = append(l.problems, o.problems...)
	l.checkD += o.checkD
}

// runWindow drives clients closed-loop clients of trace hits over apps for
// window and returns their requests and the time they were busy (the
// window minus the clients' checking time). Each response is checked after
// its latency is taken.
func runWindow(ctx context.Context, r *rig, apps []string, seed uint64, window time.Duration, clients int, ref *serveRef) (*reqLog, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	logs := make([]reqLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			l.start = start
			cl, tr := newClient(r.base)
			defer tr.CloseIdleConnections()
			rng := rand.New(rand.NewPCG(seed, uint64(c)))
			for time.Now().Before(deadline) {
				l.request(ctx, cl, classTrace, apps[rng.IntN(len(apps))], 0, ref)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &reqLog{}
	for i := range logs {
		total.add(&logs[i])
	}
	return total, elapsed - total.checkD/time.Duration(clients)
}

// request issues one request, records its latency and checks its output.
func (l *reqLog) request(ctx context.Context, cl *daed.Client, k class, app string, steps int64, ref *serveRef) {
	l.attempted++
	t := time.Now()
	var check func() error
	var err error
	switch k {
	case classSim, classCold:
		req := &daed.SimulateRequest{App: app}
		if k == classCold {
			req.MaxSteps = steps
		}
		var resp *daed.SimulateResponse
		if resp, err = cl.Simulate(ctx, req); err == nil {
			check = func() error { return checkSimReport(app, resp.Report, ref.sim[app]) }
		}
	case classCompile:
		var resp *daed.CompileResponse
		if resp, err = cl.Compile(ctx, &daed.CompileRequest{App: app}); err == nil {
			check = func() error {
				if resp.Strategies != ref.strategies[app] {
					return fmt.Errorf("compile %s: strategies differ from the in-process build", app)
				}
				return checkPurity(app, resp.Purity)
			}
		}
	case classTrace:
		var resp *daed.TraceResponse
		if resp, err = cl.Trace(ctx, &daed.TraceRequest{App: app}); err == nil {
			var d *eval.AppData
			if d, err = resp.Data.Decode(); err == nil {
				check = func() error {
					if err := checkTraceData(d, ref.digest[app]); err != nil {
						return err
					}
					if l.table1Done[app] {
						return nil
					}
					if l.table1Done == nil {
						l.table1Done = make(map[string]bool)
					}
					l.table1Done[app] = true
					return checkTable1(d, ref.table1[app], rt.DefaultMachine())
				}
			}
		}
	}
	end := time.Now()
	l.samples = append(l.samples, sample{end.Sub(t), int32(end.Sub(l.start) / time.Millisecond), k})
	if err != nil {
		l.failures = append(l.failures, fmt.Sprintf("%s %s: %v", classNames[k], app, err))
		return
	}
	ct := time.Now()
	if err := check(); err != nil {
		l.problems = append(l.problems, err.Error())
	}
	l.checkD += time.Since(ct)
}

// finishWindow applies a window's outcome and the post-window checks to
// res: every request was a store hit, so the server must have executed no
// pipeline and rejected nothing.
func finishWindow(res *result, l *reqLog, before, after daed.StatsSnapshot) {
	res.Attempted += l.attempted
	for _, f := range l.failures {
		res.opFailed(errors.New(f))
	}
	for _, p := range l.problems {
		res.fail("%s", p)
	}
	if n := after.Executions - before.Executions; n != 0 {
		res.fail("server ran %d pipeline executions for store hits", n)
	}
	if n := after.Rejected - before.Rejected; n != 0 {
		res.fail("server rejected %d requests", n)
	}
	if n := after.Faults - before.Faults; n != 0 {
		res.fail("server reported %d faults", n)
	}
}

// runServeTrace runs serve-trace.
func runServeTrace(ctx context.Context, o options) (*result, error) {
	apps := o.apps
	if len(apps) == 0 {
		apps = serveApps
	}
	clients := min(2, runtime.GOMAXPROCS(0))
	refData, err := collectReference(ctx, apps)
	if err != nil {
		return nil, err
	}
	ref, err := newServeRef(refData)
	if err != nil {
		return nil, err
	}
	r, setupTimes, err := setupServe(ctx, o, apps, clients)
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := newResult()
	before := r.srv.Stats()
	peak := newRSSPeak()
	defer peak.stop()
	peak.measure(true)
	a := allocated()
	l, busy := runWindow(ctx, r, apps, o.seed, o.seconds, clients, ref)
	alloc := allocated() - a
	peak.measure(false)
	after := r.srv.Stats()
	finishWindow(res, l, before, after)
	if o.trace {
		if err := tracedServe(ctx, o, r, ref, before, after, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	lat := make([]time.Duration, len(l.samples))
	for i, s := range l.samples {
		lat[i] = s.d
	}
	if err := endToEnd(res, setupTimes, lat, slicedP99(l.samples, p99Slices), busy, alloc, peak); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedServe is the traced run of serve-trace. The request loop carries
// no spans, so the window ran as in the end-to-end run and the tracing
// overhead is zero; the window gives the server's counters, and the layer
// probes run after it.
func tracedServe(ctx context.Context, o options, r *rig, ref *serveRef, before, after daed.StatsSnapshot, res *result) error {
	res.note("trace.overhead_ms", 0, "ms")
	serveLayers(res, before, after)
	if err := serveProbes(ctx, r, ref, coldSteps(o.seed, 1), res); err != nil {
		return err
	}
	// The eval layer behind the cold key: collect the cold app once in
	// process with a cold key's budget, through a fresh trace cache. Its
	// traces, checked against the reference, feed the isolation passes.
	app, err := bench.AppByName(coldApp)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.dir, "eval-probe")
	c := traceConfig(true)
	c.MaxSteps = coldSteps(o.seed, 0)
	t := time.Now()
	d, err := eval.CollectWith(ctx, app, c, eval.CollectOptions{Workers: 1, Cache: eval.NewTraceCache(dir)})
	res.set("eval.collect_ms", ms(time.Since(t)), "ms")
	if err != nil {
		return err
	}
	t = time.Now()
	report := eval.FormatRunReport(d, rt.DefaultMachine())
	res.set("eval.report_ms", ms(time.Since(t)), "ms")
	res.check(checkSimReport(coldApp, report, ref.sim[coldApp]))
	res.check(checkTraceData(d, ref.digest[coldApp]))
	entries, kb, err := dirSize(dir)
	if err != nil {
		return err
	}
	res.note("eval.cache_entries", float64(entries), "count")
	res.set("eval.cache_kb", kb, "KB")
	return layerPasses(ctx, []bench.App{app}, []*eval.AppData{d}, res)
}

// p99Slices is the number of consecutive slices of the window whose 99th
// percentiles lat_p99_ms takes the median of.
const p99Slices = 5

// slicedP99 splits samples by completion time into k slices of equal
// duration and returns the median of the slices' nearest-rank 99th
// percentiles in ms. A burst of host noise that lasts less than two slices
// moves one or two slice values and not the median, where it would move the
// whole window's 99th percentile.
func slicedP99(samples []sample, k int) float64 {
	if len(samples) == 0 {
		return 0
	}
	first, last := samples[0].endMs, samples[0].endMs
	for _, s := range samples {
		first, last = min(first, s.endMs), max(last, s.endMs)
	}
	span := int64(last-first) + 1
	slices := make([][]float64, k)
	for _, s := range samples {
		i := int64(s.endMs-first) * int64(k) / span
		slices[i] = append(slices[i], ms(s.d))
	}
	var p99s []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			p99s = append(p99s, percentile(sl, 0.99))
		}
	}
	return median(p99s)
}

// serveLayers records the server's counters over a window, the fixed ones
// as notes.
func serveLayers(res *result, before, after daed.StatsSnapshot) {
	res.set("daed.store_hits", float64(after.StoreHits-before.StoreHits), "count")
	res.note("daed.executions", float64(after.Executions-before.Executions), "count")
	res.note("daed.collapsed", float64(after.Collapsed-before.Collapsed), "count")
	res.note("daed.rejected", float64(after.Rejected-before.Rejected), "count")
	res.set("store.kb", float64(after.Store.Bytes)/1024, "KB")
}

// classProbe issues, from one client and one at a time, a fixed number of
// requests of every class for coldApp (the cold one with max_steps steps),
// checks each response, and records each class's client-observed median.
func classProbe(ctx context.Context, r *rig, ref *serveRef, steps int64, res *result) {
	cl, tr := newClient(r.base)
	defer tr.CloseIdleConnections()
	out := &reqLog{start: time.Now()}
	for _, n := range []struct {
		k class
		n int
	}{{classSim, 100}, {classCompile, 100}, {classTrace, 10}, {classCold, 1}} {
		for i := 0; i < n.n; i++ {
			out.request(ctx, cl, n.k, coldApp, steps, ref)
		}
	}
	for _, f := range append(out.failures, out.problems...) {
		res.fail("class probe: %s", f)
	}
	var per [numClasses][]time.Duration
	for _, s := range out.samples {
		per[s.class] = append(per[s.class], s.d)
	}
	res.set("daed.sim_hit_us", median(durationsMs(per[classSim]))*1e3, "us")
	res.set("daed.compile_hit_us", median(durationsMs(per[classCompile]))*1e3, "us")
	res.set("daed.trace_hit_us", median(durationsMs(per[classTrace]))*1e3, "us")
	res.set("daed.cold_ms", median(durationsMs(per[classCold])), "ms")
}

// serveProbes measures the service layers of coldApp's requests without
// the load: each class as one client sees it, the handler alone
// (Server.ServeHTTP on a recorder, no transport), client-side decoding of a
// trace response, and store.Store Put and Get of the artifacts' payloads in
// a separate store. steps is the budget of the probe's one cold key.
func serveProbes(ctx context.Context, r *rig, ref *serveRef, steps int64, res *result) error {
	classProbe(ctx, r, ref, steps, res)
	app := coldApp
	handler := func(path string, body []byte) (time.Duration, []byte, error) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		t := time.Now()
		r.srv.ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code != http.StatusOK {
			return 0, nil, fmt.Errorf("%s: status %d", path, rec.Code)
		}
		return d, rec.Body.Bytes(), nil
	}
	probe := func(path string, req any, n int) ([]time.Duration, []byte, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, nil, err
		}
		var ds []time.Duration
		var last []byte
		for i := 0; i < n; i++ {
			d, b, err := handler(path, body)
			if err != nil {
				return nil, nil, err
			}
			ds, last = append(ds, d), b
		}
		return ds, last, nil
	}
	simD, simBody, err := probe("/v1/simulate", &daed.SimulateRequest{App: app}, 200)
	if err != nil {
		return err
	}
	traceD, traceBody, err := probe("/v1/trace", &daed.TraceRequest{App: app}, 30)
	if err != nil {
		return err
	}
	res.set("daed.handler_sim_hit_us", median(durationsMs(simD))*1e3, "us")
	res.set("daed.handler_trace_hit_us", median(durationsMs(traceD))*1e3, "us")

	var decodeD []time.Duration
	for i := 0; i < 30; i++ {
		t := time.Now()
		var tr daed.TraceResponse
		err := json.Unmarshal(traceBody, &tr)
		var d *eval.AppData
		if err == nil {
			d, err = tr.Data.Decode()
		}
		decodeD = append(decodeD, time.Since(t))
		if err != nil {
			return fmt.Errorf("decoding a trace response: %w", err)
		}
		if i == 0 {
			res.check(checkTraceData(d, ref.digest[app]))
		}
	}
	res.set("wire.trace_decode_ms", median(durationsMs(decodeD)), "ms")

	// The store probe writes and reads the simulate artifact, the payload a
	// cold key stores.
	st := store.Open(store.Config{Dir: filepath.Join(r.dir, "probe-store")})
	defer st.Close()
	var putD, getD []time.Duration
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("sim/%s/%d", app, i)
		t := time.Now()
		err := st.Put(k, simBody)
		putD = append(putD, time.Since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		b, ok := st.Get(k)
		getD = append(getD, time.Since(t))
		if !ok || !bytes.Equal(compactJSON(b), compactJSON(simBody)) {
			return fmt.Errorf("store: %s did not read back", k)
		}
	}
	res.set("store.put_us", median(durationsMs(putD))*1e3, "us")
	res.set("store.get_us", median(durationsMs(getD))*1e3, "us")
	return nil
}

// compactJSON strips insignificant whitespace so stored and original
// payloads compare byte for byte.
func compactJSON(b []byte) []byte {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		return b
	}
	return out.Bytes()
}

// probeServe is the service-layer part of repro-cold's traced run: a server
// whose trace cache is a copy of the set-up reproduction's, so that only
// the probe's cold key simulates, serves the same probes as the serve
// workloads' traced runs, and its counters are taken over the probes.
func probeServe(ctx context.Context, o options, cacheDir string, ref *serveRef, res *result) error {
	dir := filepath.Join(o.dir, "probe")
	if err := copyDir(cacheDir, filepath.Join(dir, "traces")); err != nil {
		return err
	}
	r, err := startRig(dir)
	if err != nil {
		return err
	}
	defer r.close()
	if err := prewarm(ctx, r, []string{coldApp}, 1); err != nil {
		return err
	}
	before := r.srv.Stats()
	if err := serveProbes(ctx, r, ref, coldSteps(o.seed, 0), res); err != nil {
		return err
	}
	after := r.srv.Stats()
	if n := after.Executions - before.Executions; n != 1 {
		res.fail("probe server ran %d pipeline executions for 1 cold key", n)
	}
	serveLayers(res, before, after)
	return nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
