package fuzzgen

import (
	"math"
	"testing"

	"dae/internal/analysis/wcec"
	"dae/internal/cpu"
	"dae/internal/interp"
	"dae/internal/ir"
)

// wcecEnv is the integer environment every generated task is bounded at —
// the same values newState seeds the scalar arguments with.
func wcecEnv() map[string]int64 {
	return map[string]int64{"n": N, "p": 13, "q": -7}
}

// wcecSoundnessCheck is the WCEC differential for one compiled seed: every
// function with a finite non-profile static bound must satisfy
// bound >= model.Cycles(observed) on an actual run, and every unbounded
// verdict must carry a diagnostic (never a silent clamp). It returns how
// many functions were asserted.
func wcecSoundnessCheck(t *testing.T, prog *interp.Program, fns []*ir.Func, seed int64, src string) int {
	t.Helper()
	model := wcec.NewCostModel(cpu.DefaultParams())
	an := wcec.New(model)
	asserted := 0
	for _, fn := range fns {
		b := an.BoundFunc(fn, wcecEnv())
		if b.Kind == wcec.BoundUnbounded {
			if !math.IsInf(b.Cycles, 1) {
				t.Errorf("@%s: unbounded verdict with finite cycles %.0f\nsource:\n%s", fn.Name, b.Cycles, src)
			}
			if len(b.Diags) == 0 {
				t.Errorf("@%s: unbounded verdict without a diagnostic\nsource:\n%s", fn.Name, src)
			}
			continue
		}
		_, _, cnt, _, err := engineRun(false, prog, fn, seed, 4<<20)
		if err != nil {
			// A faulted run has no complete observation to certify against.
			continue
		}
		if obs := model.Cycles(cnt); b.Cycles < obs {
			t.Errorf("@%s: static bound %.0f cycles < observed %.0f (kind %s)\nsource:\n%s",
				fn.Name, b.Cycles, obs, b.Kind, src)
		} else {
			asserted++
		}
	}
	return asserted
}

// TestWCECSoundnessSeeded is the deterministic regression net for the static
// cost analysis: a fixed block of generator seeds compiles each task through
// the full optimize+DAE pipeline and asserts the WCEC soundness differential
// on the task and every generated access version.
func TestWCECSoundnessSeeded(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	asserted := 0
	for trial := 0; trial < trials; trial++ {
		seed := int64(5000 + trial)
		src := New(seed).Task()
		prog, fns := compileForEngines(t, seed, src)
		asserted += wcecSoundnessCheck(t, prog, fns, seed, src)
	}
	if asserted == 0 {
		t.Fatal("no seed produced a finite static bound — the differential asserted nothing")
	}
	t.Logf("wcec differential: %d bounds asserted over %d seeds", asserted, trials)
}
