package interp

import (
	"context"
	"fmt"
	"math"

	"dae/internal/fault"
	"dae/internal/ir"
	"dae/internal/mem"
)

// val is a runtime value. The statically known IR type selects which field is
// meaningful; bools live in i as 0/1.
type val struct {
	i int64
	f float64
	p ptr
}

// Value is a public argument/result for Env.Call.
type Value struct {
	v val
	k valKind
}

type valKind uint8

const (
	intVal valKind = iota
	floatVal
	ptrVal
	voidVal
)

// Int wraps an integer argument.
func Int(v int64) Value { return Value{v: val{i: v}, k: intVal} }

// Float wraps a float argument.
func Float(v float64) Value { return Value{v: val{f: v}, k: floatVal} }

// Ptr wraps an array argument.
func Ptr(s *Seg) Value { return Value{v: val{p: ptr{seg: s}}, k: ptrVal} }

// Int64 returns the integer payload.
func (v Value) Int64() int64 { return v.v.i }

// Float64 returns the float payload.
func (v Value) Float64() float64 { return v.v.f }

// IsInt reports whether v wraps an integer.
func (v Value) IsInt() bool { return v.k == intVal }

// Segment returns the segment behind a pointer value, or nil for scalars.
// Static analyses use segment identity to decide whether two task
// invocations share an array.
func (v Value) Segment() *Seg {
	if v.k != ptrVal {
		return nil
	}
	return v.v.p.seg
}

// Tracer observes every data-memory access the interpreted program performs.
// Addresses are byte addresses in the simulated address space.
type Tracer interface {
	// Load is a blocking read of the element at addr.
	Load(addr int64)
	// Store is a write of the element at addr.
	Store(addr int64)
	// Prefetch is a non-binding prefetch of the element at addr.
	Prefetch(addr int64)
}

// Counts tallies executed instructions by class; the CPU timing model turns
// these into cycles.
type Counts struct {
	Int        int64 // integer ALU ops (arith, compare, select, cast)
	Float      int64 // FP add/sub/mul
	FloatDiv   int64 // FP divide
	MathOps    int64 // sqrt/sin/... intrinsics
	Loads      int64
	Stores     int64
	Prefetches int64
	Branches   int64
	GEPs       int64 // address computations
	Calls      int64
}

// Total returns the total dynamic instruction count.
func (c Counts) Total() int64 {
	return c.Int + c.Float + c.FloatDiv + c.MathOps + c.Loads + c.Stores +
		c.Prefetches + c.Branches + c.GEPs + c.Calls
}

// Add accumulates other into c.
func (c *Counts) Add(other Counts) {
	c.Int += other.Int
	c.Float += other.Float
	c.FloatDiv += other.FloatDiv
	c.MathOps += other.MathOps
	c.Loads += other.Loads
	c.Stores += other.Stores
	c.Prefetches += other.Prefetches
	c.Branches += other.Branches
	c.GEPs += other.GEPs
	c.Calls += other.Calls
}

// PrefetchHook observes prefetch events with their originating static
// instruction, for profile-guided refinement (§6.2.3 of the paper). When a
// hook is installed it replaces the plain tracer for prefetch events.
type PrefetchHook func(src ir.Instr, addr int64)

// Env executes compiled functions. It is not safe for concurrent use; the
// multicore runtime gives each simulated core its own Env. Distinct Envs may
// share one Program, including from different goroutines.
type Env struct {
	prog     *Program
	tracer   Tracer
	prefHook PrefetchHook
	counts   Counts
	// hier, when non-nil, receives memory events directly from the bytecode
	// VM's memory instructions (the fused cache probe), bypassing the Tracer
	// interface dispatch.
	hier *mem.Hierarchy
	// bfree is the bytecode VM's frame freelist (see bframe): frames are
	// pushed back on function return, so steady-state calls (including the
	// bCall hot path) allocate nothing.
	bfree []*bframe
	// bmemo caches Program.bytecode results per Env, keeping the top-level
	// Call path off the Program's shared snapshot entirely.
	bmemo map[*ir.Func]*bcode
	// oracle marks an Env from NewOracleEnv: it executes on the tree
	// executor (oracle.go), recording its op histogram into stats when that
	// is non-nil.
	oracle bool
	stats  *OpStats
	// ctx, when non-nil, is polled every ctxCheckInterval steps; a canceled
	// context aborts the current Call with a fault.KindTimeout error.
	ctx context.Context
	// maxSteps, when positive, is the per-Call step (fuel) budget; exceeding
	// it aborts with fault.ErrStepBudget naming the current instruction.
	maxSteps int64
	// steps counts executed operations since the last top-level Call across
	// all nested frames; checkAt is the next step count at which the budget
	// and context are inspected.
	steps   int64
	checkAt int64
}

// NewEnv returns an execution environment over prog. tracer may be nil.
func NewEnv(prog *Program, tracer Tracer) *Env {
	return &Env{prog: prog, tracer: tracer}
}

// bytecodeMemo resolves f through the per-Env memo, falling back to the
// Program's immutable snapshot (lock-free in steady state).
func (e *Env) bytecodeMemo(f *ir.Func) (*bcode, error) {
	if b, ok := e.bmemo[f]; ok {
		return b, nil
	}
	b, err := e.prog.bytecode(f)
	if err != nil {
		return nil, err
	}
	if e.bmemo == nil {
		e.bmemo = make(map[*ir.Func]*bcode)
	}
	e.bmemo[f] = b
	return b, nil
}

// Counts returns the instruction counts accumulated since the last Reset.
func (e *Env) Counts() Counts { return e.counts }

// ResetCounts clears the instruction counters (used between task phases).
func (e *Env) ResetCounts() { e.counts = Counts{} }

// SetTracer replaces the tracer.
func (e *Env) SetTracer(t Tracer) { e.tracer = t }

// SetHierarchy installs (or clears, with nil) the fused cache probe: the
// bytecode VM's memory instructions feed h.Access directly, skipping the
// per-event Tracer interface dispatch. The event stream is identical to
// routing a Tracer adapter over the same hierarchy. While set, the tracer is
// not consulted for memory events (an Env from NewOracleEnv ignores h and
// keeps using the tracer); the PrefetchHook still takes precedence for
// prefetches.
func (e *Env) SetHierarchy(h *mem.Hierarchy) { e.hier = h }

// SetPrefetchHook installs (or clears, with nil) a per-instruction prefetch
// observer; while set, it receives prefetch events instead of the tracer.
func (e *Env) SetPrefetchHook(h PrefetchHook) { e.prefHook = h }

// SetContext installs a cancellation context, polled every ctxCheckInterval
// executed operations. When ctx expires, the in-flight Call returns a
// fault.KindTimeout error carrying the function and instruction it stopped
// at. A nil ctx (the default) disables the polling entirely.
func (e *Env) SetContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // context.Background(): nothing to poll
	}
	e.ctx = ctx
}

// SetMaxSteps installs a per-Call step (fuel) budget: a Call that executes
// more than n operations — across all nested frames — aborts with a
// fault.ErrStepBudget error naming the function and instruction it stopped
// at. n <= 0 removes the budget.
func (e *Env) SetMaxSteps(n int64) { e.maxSteps = n }

// Steps returns the operations executed by the current (or last) Call.
func (e *Env) Steps() int64 { return e.steps }

// ctxCheckInterval is how many executed operations separate context polls;
// at simulator speeds this bounds cancellation latency well below 1 ms while
// keeping the poll off the per-op hot path.
const ctxCheckInterval = 1 << 15

// armCheck computes the next step count at which exec must leave the hot
// loop: the budget boundary or the next context poll, whichever is sooner.
func (e *Env) armCheck() {
	e.checkAt = int64(math.MaxInt64)
	if e.maxSteps > 0 {
		e.checkAt = e.maxSteps
	}
	if e.ctx != nil {
		if next := e.steps + ctxCheckInterval; next < e.checkAt {
			e.checkAt = next
		}
	}
}

// stepCheck runs at budget/poll boundaries: it raises the typed fault when
// the budget is exhausted or the context is done, and re-arms otherwise.
// Both engines call it with the function name and the IR instruction about
// to execute, so budget and timeout faults are byte-identical across them.
func (e *Env) stepCheck(fname string, src ir.Instr) error {
	if e.maxSteps > 0 && e.steps >= e.maxSteps {
		return &fault.Error{
			Kind: fault.KindStepBudget,
			Func: fname,
			Pos:  instrPos(src),
			Msg:  fmt.Sprintf("interp: exceeded step budget of %d operations", e.maxSteps),
		}
	}
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return &fault.Error{Kind: fault.KindTimeout, Func: fname, Pos: instrPos(src), Err: err}
		}
	}
	e.armCheck()
	return nil
}

// instrPos renders the position of an executed operation: its basic block
// and the originating IR instruction.
func instrPos(src ir.Instr) string {
	if src == nil {
		return ""
	}
	if b := src.Parent(); b != nil {
		return "%" + b.Name + ": " + ir.FormatInstr(src)
	}
	return ir.FormatInstr(src)
}

// trap builds a typed execution-fault error at src.
func trap(kind fault.TrapKind, fname string, src ir.Instr, format string, args ...any) error {
	return fault.NewTrap(kind, fname, instrPos(src), format, args...)
}

// memTrap classifies a failed dereference: nil segments are nil-deref traps,
// everything else is out-of-bounds, named with segment, offset, and length.
func memTrap(fname string, src ir.Instr, what string, p ptr) error {
	if p.seg == nil {
		return trap(fault.TrapNilDeref, fname, src, "interp: %s through nil segment", what)
	}
	return trap(fault.TrapOutOfBounds, fname, src, "interp: %s out of bounds (seg=%s off=%d len=%d)",
		what, segName(p.seg), p.off, p.seg.Len())
}

// Call executes f with args. Array arguments are passed with Ptr, scalars
// with Int/Float. It is Prepare followed by Prepared.Call, without keeping
// the handle; the context is polled before f is resolved.
func (e *Env) Call(f *ir.Func, args ...Value) (Value, error) {
	if err := e.ctxErr(f); err != nil {
		return Value{}, err
	}
	p := Prepared{env: e, fn: f}
	if err := p.resolve(); err != nil {
		return Value{}, err
	}
	return p.Call(args...)
}

// ctxErr is the poll at the top of a call: a timeout fault naming f once
// the Env's context is done.
func (e *Env) ctxErr(f *ir.Func) error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return &fault.Error{Kind: fault.KindTimeout, Func: f.Name, Err: err}
		}
	}
	return nil
}

// retValue wraps an interpreter result in the public Value kind selected by
// the function's return type.
func retValue(f *ir.Func, out val) Value {
	k := voidVal
	switch {
	case f.RetType.IsInt() || f.RetType.IsBool():
		k = intVal
	case f.RetType.IsFloat():
		k = floatVal
	}
	return Value{v: out, k: k}
}

func segName(s *Seg) string {
	if s == nil {
		return "<nil>"
	}
	if s.Stack {
		return "<stack>"
	}
	return s.name
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func cmpI(p ir.CmpPred, x, y int64) bool {
	switch p {
	case ir.EQ:
		return x == y
	case ir.NE:
		return x != y
	case ir.LT:
		return x < y
	case ir.LE:
		return x <= y
	case ir.GT:
		return x > y
	default:
		return x >= y
	}
}

func cmpF(p ir.CmpPred, x, y float64) bool {
	switch p {
	case ir.EQ:
		return x == y
	case ir.NE:
		return x != y
	case ir.LT:
		return x < y
	case ir.LE:
		return x <= y
	case ir.GT:
		return x > y
	default:
		return x >= y
	}
}
