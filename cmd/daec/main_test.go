package main

import (
	"strings"
	"testing"

	"dae"
)

func TestAnalyzeModuleDemo(t *testing.T) {
	mod, err := dae.Compile(demoSrc, "demo")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	opts := dae.DefaultOptions()
	opts.ParamHints = map[string]int64{"N": 64}
	results, err := dae.GenerateAccess(mod, opts)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	var sb strings.Builder
	if errs := analyzeModule(&sb, results, opts.ParamHints); errs != 0 {
		t.Errorf("analyzeModule reported %d errors:\n%s", errs, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"task @lu: purity PASS",
		"coverage 100.0% (exact)",
		"wcec",    // static bound line
		"(exact)", // affine nest at concrete hints → exact kind
		"rwcec",   // at least one decision point in the RWCEC table
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeBenchmarksClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all seven benchmarks")
	}
	var sb strings.Builder
	errs, err := analyzeBenchmarks(&sb)
	if err != nil {
		t.Fatalf("analyzeBenchmarks: %v", err)
	}
	if errs != 0 {
		t.Errorf("got %d error diagnostics:\n%s", errs, sb.String())
	}
	out := sb.String()
	if strings.Contains(out, "FAIL") {
		t.Errorf("purity failure in output:\n%s", out)
	}
	// Every benchmark section must appear and report zero races.
	for _, app := range []string{"LU", "Cholesky", "FFT", "LBM", "LibQ", "Cigar", "CG"} {
		if !strings.Contains(out, app) {
			t.Errorf("output missing app %s", app)
		}
	}
	// The WCEC sections must be present and the soundness gate must pass.
	for _, want := range []string{"== static WCEC bounds ==", "== wcec soundness gate ==", "soundness: PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
