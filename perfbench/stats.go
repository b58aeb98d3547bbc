package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are values that explain a traced run but have no better
	// direction, such as fixed workload counts (printed to stderr).
	notes map[string]metric
	// problems lists every failed output check, failures every failed op
	// (both printed to stderr).
	problems, failures []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metric), notes: make(map[string]metric)}
}

// set records one metric.
func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// note records one explanatory value.
func (r *result) note(name string, v float64, unit string) { r.notes[name] = metric{v, unit} }

// fail records a failed output check; the run then reports correct=false.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// opFailed counts one op that returned err. Failed ops are counted apart
// from output checks: correct speaks of the ops that did not fail.
func (r *result) opFailed(err error) {
	r.Failed++
	r.failures = append(r.failures, err.Error())
}

// check records err, if any, as a failed output check.
func (r *result) check(err error) {
	if err != nil {
		r.fail("%v", err)
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantiles returns the three quartile cut points of xs with the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// spread this program prints equals the one computed from the same result
// lines with Python's statistics module.
func quantiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle value of xs (mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(d))*p)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// allocated returns the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.TotalAlloc
}

// rssMB returns the process's resident set size (VmRSS) in MB.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// rssPeak samples the process's resident set size every few milliseconds
// while measuring is on, and keeps the largest sample: the peak RSS of the
// measured ops alone. The kernel's own peak (VmHWM) would also count set-up
// and the reference data the checks are prepared from.
type rssPeak struct {
	mu   sync.Mutex
	on   bool
	max  float64
	err  error
	once sync.Once
	quit chan struct{}
	done chan struct{}
}

// newRSSPeak returns the set-up's freed memory to the OS, so that pages the
// ops do not use are not counted, and starts the sampler, not yet measuring.
func newRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	p := &rssPeak{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				p.mu.Lock()
				on := p.on
				p.mu.Unlock()
				if on {
					p.sample()
				}
			}
		}
	}()
	return p
}

func (p *rssPeak) sample() {
	v, err := rssMB()
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		p.err = err
	}
	p.max = max(p.max, v)
}

// measure turns sampling on or off, with one sample at each edge.
func (p *rssPeak) measure(on bool) {
	p.mu.Lock()
	p.on = on
	p.mu.Unlock()
	p.sample()
}

// stop ends the sampler and returns the peak in MB.
func (p *rssPeak) stop() (float64, error) {
	p.once.Do(func() { close(p.quit) })
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.max, p.err
}

// endToEnd fills the end-to-end metrics of a run: lat holds every op's
// latency, p99 is the caller's 99th-percentile latency in ms, busy is the
// measured time the ops ran in, alloc the heap bytes they allocated, and
// peak sampled the RSS while they ran.
func endToEnd(r *result, setup []time.Duration, lat []time.Duration, p99 float64, busy time.Duration, alloc uint64, peak *rssPeak) error {
	r.set("setup_s", median(durationsMs(setup))/1e3, "s")
	r.set("ops_per_s", float64(len(lat))/busy.Seconds(), "ops/s")
	l := durationsMs(lat)
	r.set("lat_p50_ms", median(l), "ms")
	r.set("lat_p99_ms", p99, "ms")
	r.set("alloc_kb_per_op", float64(alloc)/1024/float64(len(lat)), "KB")
	rss, err := peak.stop()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss, "MB")
	return nil
}

// spans accumulates the busy time of named spans recorded around calls into
// the program; a nil *spans records nothing, so untraced ops pay nothing.
type spans struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func newSpans() *spans { return &spans{d: make(map[string]time.Duration)} }

// time runs f and, when s is non-nil, adds its duration to span name.
func (s *spans) time(name string, f func() error) error {
	if s == nil {
		return f()
	}
	t := time.Now()
	err := f()
	d := time.Since(t)
	s.mu.Lock()
	s.d[name] += d
	s.mu.Unlock()
	return err
}

func (s *spans) get(name string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d[name]
}

// summarizeFile reads result lines (one JSON result per line, other lines
// ignored) and prints, per metric, the median, the quartiles and the
// interquartile distance as a share of the median.
func summarizeFile(path string, w io.Writer) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	vals := make(map[string][]float64)
	units := make(map[string]string)
	runs, incorrect, failed := 0, 0, 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r result
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
			continue
		}
		runs++
		if !r.Correct {
			incorrect++
		}
		failed += r.Failed
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	if runs == 0 {
		return fmt.Errorf("%s: no result lines", path)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs, %d incorrect, %d failed ops\n", runs, incorrect, failed)
	fmt.Fprintf(w, "%-26s %-6s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, n := range names {
		q1, q2, q3 := quantiles(vals[n])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(w, "%-26s %-6s %14.6g %14.6g %14.6g %9.4f\n", n, units[n], q1, q2, q3, spread)
	}
	return nil
}
