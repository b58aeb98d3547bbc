package analysis

import (
	"fmt"

	"dae/internal/interp"
	"dae/internal/ir"
)

// covTracer records, per cache line, whether the access phase touched it and
// whether the execute phase read it. The interpreter emits events only for
// heap (external) segments, so task-local traffic is excluded for free.
type covTracer struct {
	lineBytes int64
	inAccess  bool
	lines     map[int64]uint8
}

const (
	lineTouched uint8 = 1 << iota
	lineRead
)

func (t *covTracer) mark(addr int64, bit uint8) {
	t.lines[addr/t.lineBytes] |= bit
}

func (t *covTracer) Load(addr int64) {
	if t.inAccess {
		t.mark(addr, lineTouched)
	} else {
		t.mark(addr, lineRead)
	}
}

func (t *covTracer) Store(addr int64) {}

func (t *covTracer) Prefetch(addr int64) {
	if t.inAccess {
		t.mark(addr, lineTouched)
	}
}

// DynamicCoverage measures the line-granular prefetch coverage of one task
// invocation by running the access phase (if any) and then the execute phase
// on cloned arguments, and intersecting the recorded line sets: read is the
// number of distinct cache lines the execute phase loads, covered the subset
// the access phase touched first. The cloned arguments keep the execute
// phase's stores away from live data, so the measurement is repeatable.
//
// This is the dynamic ground truth the static StaticCoverage figure is
// cross-validated against in internal/eval.
func DynamicCoverage(mod *ir.Module, task, access *ir.Func, h *interp.Heap, args []interp.Value, lineBytes int64) (read, covered int, err error) {
	if lineBytes <= 0 {
		lineBytes = 64
	}
	tr := &covTracer{lineBytes: lineBytes, lines: make(map[int64]uint8)}
	prog := interp.NewProgram(mod)
	env := interp.NewEnv(prog, tr)
	cl := interp.CloneArgs(h, args)
	if access != nil {
		tr.inAccess = true
		if _, err := env.Call(access, cl...); err != nil {
			return 0, 0, fmt.Errorf("analysis: access phase of %s: %w", task.Name, err)
		}
	}
	tr.inAccess = false
	if _, err := env.Call(task, cl...); err != nil {
		return 0, 0, fmt.Errorf("analysis: execute phase of %s: %w", task.Name, err)
	}
	for _, bits := range tr.lines {
		if bits&lineRead != 0 {
			read++
			if bits&lineTouched != 0 {
				covered++
			}
		}
	}
	return read, covered, nil
}
