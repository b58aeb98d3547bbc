package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"dae/internal/daed"
)

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

// TestRunStepBudgetFailureSummary: a step budget every benchmark exceeds
// fails all 21 runs; daebench reports each with its fault class and exits
// nonzero instead of crashing mid-collection.
func TestRunStepBudgetFailureSummary(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-max-steps", "1", "-exp", "strategies"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, errb.String())
	}
	msg := errb.String()
	for _, want := range []string{"21 run(s) failed", "step-budget", "LU", "compiler-dae"} {
		if !strings.Contains(msg, want) {
			t.Errorf("failure summary missing %q:\n%s", want, msg)
		}
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty on failure: %q", out.String())
	}
}

// TestRunBadEngine: every run executes on the bytecode VM, so there is no
// engine to choose. -engine, which older scripts pass, is a usage error
// rather than a flag that is silently ignored.
func TestRunBadEngine(t *testing.T) {
	for _, engine := range []string{"tree", "bytecode"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-engine", engine}, &out, &errb); code != 2 {
			t.Fatalf("-engine %s: exit code = %d, want 2", engine, code)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined: -engine") {
			t.Errorf("-engine %s: stderr should name the unknown flag:\n%s", engine, errb.String())
		}
	}
}

// TestRunOpStats: the dynamic op-pair histogram is measured by the tests
// (TestOpStatsHistogram in internal/rt), so -opstats is a usage error and
// nothing is collected.
func TestRunOpStats(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-opstats"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty: %q", out.String())
	}
}

func TestRunStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("collects all benchmarks")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "strategies"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "LU") {
		t.Errorf("strategy report missing benchmarks:\n%s", out.String())
	}
}

// TestExitCodes is the table-driven contract for daebench's exit statuses:
// 0 clean, 1 failed runs/experiments, 2 usage, 3 completed degraded.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr []string
		stdout []string
		heavy  bool // collects all 21 runs; skipped under -short
	}{
		{name: "usage-bad-flag", args: []string{"-no-such-flag"}, want: 2},
		{name: "usage-bad-degrade", args: []string{"-degrade", "never"}, want: 2,
			stderr: []string{"degrade"}},
		{name: "usage-bad-inject", args: []string{"-inject", "no-such-site,,,,error"}, want: 2,
			stderr: []string{"inject"}},
		{name: "fault-budget", args: []string{"-max-steps", "1", "-exp", "strategies"}, want: 1,
			stderr: []string{"run(s) failed", "step-budget"}},
		{name: "clean", args: []string{"-exp", "strategies"}, want: 0, heavy: true,
			stdout: []string{"Access-version generation decisions"}},
		{name: "degraded-access-fault", heavy: true,
			args: []string{"-exp", "table1", "-inject", "access-phase,LibQ,compiler-dae,,panic!"}, want: 3,
			stderr: []string{"completed degraded", "LibQ", "compiler-dae", "panic"},
			stdout: []string{"Table 1", "forfeit the DVFS benefit"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.heavy && testing.Short() {
				t.Skip("collects all benchmarks")
			}
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != tc.want {
				t.Fatalf("exit code = %d, want %d; stderr:\n%s", code, tc.want, errb.String())
			}
			for _, want := range tc.stderr {
				if !strings.Contains(errb.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errb.String())
				}
			}
			for _, want := range tc.stdout {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

// TestExperimentFailureDoesNotMaskOthers: with -exp all, a failure inside
// one experiment (here the refined re-collection, failed via an access-gen
// injection that only that experiment reaches) must not suppress the output
// of the experiments that succeeded.
func TestExperimentFailureDoesNotMaskOthers(t *testing.T) {
	if testing.Short() {
		t.Skip("collects all benchmarks")
	}
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "all", "-inject", "access-gen,,,,error"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"Table 1", "Figure 3", "Access-version generation decisions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("surviving experiment output missing %q", want)
		}
	}
	for _, want := range []string{"refined", "experiment(s) failed"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
	}
}

// TestRemoteByteIdentical is the remote-mode acceptance test: daebench
// -server fetches the trace sets from a daed instance and renders the same
// experiment tables byte-identically to a local run — one formatter, one
// trace semantics, with the server's artifact store in between.
func TestRemoteByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("collects all benchmarks twice")
	}
	srv := daed.New(daed.Config{Workers: 2, Dir: t.TempDir()})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var local, localErr bytes.Buffer
	if code := run([]string{"-exp", "table1"}, &local, &localErr); code != 0 {
		t.Fatalf("local run exit = %d; stderr:\n%s", code, localErr.String())
	}
	var remote, remoteErr bytes.Buffer
	if code := run([]string{"-exp", "table1", "-server", ts.URL}, &remote, &remoteErr); code != 0 {
		t.Fatalf("remote run exit = %d; stderr:\n%s", code, remoteErr.String())
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("remote stdout differs from local:\nlocal:\n%q\nremote:\n%q",
			local.String(), remote.String())
	}

	// A second remote run answers from the warm store, still identically.
	var warm, warmErr bytes.Buffer
	if code := run([]string{"-exp", "table1", "-server", ts.URL}, &warm, &warmErr); code != 0 {
		t.Fatalf("warm remote run exit = %d; stderr:\n%s", code, warmErr.String())
	}
	if !bytes.Equal(local.Bytes(), warm.Bytes()) {
		t.Fatal("warm remote stdout differs from local")
	}
}

// TestRemoteRejectsLocalFlags: local-simulation flags have no remote
// meaning and are usage errors with -server.
func TestRemoteRejectsLocalFlags(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-server", "http://localhost:1", "-cache-dir", "/tmp/x"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-cache-dir") {
		t.Errorf("stderr does not name the offending flag: %q", errb.String())
	}
}
