package interp

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"dae/internal/fault"
	"dae/internal/ir"
)

// This file is the tree executor: the interpreter that runs compile.go's
// compiled ops directly, one op per IR instruction over one untyped register
// file, with every memory event going through the Tracer interface. The
// register-bytecode VM (bexec.go) is a translation of the same ops with
// typed register planes, superinstructions and a fused cache probe; it is
// the only engine production code runs. The tree executor is kept as the
// VM's differential oracle, the way encoding/json is kept as the oracle of
// the hand-written trace decoders: both must produce byte-identical traces,
// counts, step accounting and typed faults on every program, and the tree
// executor is the simpler reading of the ops to check the VM against. It is
// also where the dynamic op-pair histogram that chose the VM's
// superinstructions is measured (OpStats). Tests reach it through
// NewOracleEnv.

// NewOracleEnv returns an Env that runs every Call and Prepared handle on
// the tree oracle instead of the bytecode VM. It is for differential tests
// and the op histogram; production code builds its Envs with NewEnv. stats,
// when non-nil, accumulates the dynamic op and op-pair histogram of
// everything the Env executes; it is not synchronized, so concurrently
// running Envs need their own. An oracle Env reports memory events to
// tracer only: SetHierarchy's fused probe is a bytecode-VM feature.
func NewOracleEnv(prog *Program, tracer Tracer, stats *OpStats) *Env {
	return &Env{prog: prog, tracer: tracer, oracle: true, stats: stats}
}

// callOracle runs c on the tree executor with top-level arguments.
func (e *Env) callOracle(c *code, args []Value) (val, error) {
	vs := make([]val, len(args))
	for i, a := range args {
		vs[i] = a.v
	}
	return e.exec(c, vs)
}

// exec runs c in a fresh frame: the register file, the phi parallel-copy
// scratch and the frame-local stack segments backing allocas.
func (e *Env) exec(c *code, args []val) (val, error) {
	regs := make([]val, c.nregs)
	for i, r := range c.params {
		regs[r] = args[i]
	}
	for _, ci := range c.consts {
		regs[ci.reg] = ci.v
	}
	// Frame-local stack segments for allocas. They model registers/stack, so
	// they are marked Stack and produce no memory events.
	segF := &Seg{Elem: FloatElem, Stack: true, F: make([]float64, c.nStackF)}
	segI := &Seg{Elem: IntElem, Stack: true, I: make([]int64, c.nStackI)}
	for _, a := range c.allocas {
		if a.elem == FloatElem {
			regs[a.reg] = val{p: ptr{seg: segF, off: a.slot}}
		} else {
			regs[a.reg] = val{p: ptr{seg: segI, off: a.slot}}
		}
	}

	// Phi parallel-copy scratch: sized for the widest move list so that
	// cyclic copies (swaps) read all sources before writing any destination.
	tmp := make([]val, c.maxMoves)
	cnt := &e.counts
	ops := c.ops
	pc := 0
	prev := -1 // previous executed op kind, for the op-pair histogram
	for pc < len(ops) {
		op := &ops[pc]
		e.steps++
		if e.steps >= e.checkAt {
			if err := e.stepCheck(c.fn.Name, op.src); err != nil {
				return val{}, err
			}
		}
		if st := e.stats; st != nil {
			st.Ops[op.kind]++
			if prev >= 0 {
				st.Pairs[prev][op.kind]++
			}
			prev = int(op.kind)
		}
		switch op.kind {
		case opBinI:
			x, y := regs[op.a].i, regs[op.b].i
			var r int64
			switch ir.BinOp(op.aux) {
			case ir.IAdd:
				r = x + y
			case ir.ISub:
				r = x - y
			case ir.IMul:
				r = x * y
			case ir.IDiv:
				if y == 0 {
					return val{}, trap(fault.TrapDivByZero, c.fn.Name, op.src, "interp: integer division by zero")
				}
				r = x / y
			case ir.IRem:
				if y == 0 {
					return val{}, trap(fault.TrapDivByZero, c.fn.Name, op.src, "interp: integer remainder by zero")
				}
				r = x % y
			case ir.IAnd:
				r = x & y
			case ir.IOr:
				r = x | y
			case ir.IXor:
				r = x ^ y
			case ir.IShl:
				r = x << uint64(y&63)
			case ir.IShr:
				r = x >> uint64(y&63)
			case ir.IMin:
				r = x
				if y < x {
					r = y
				}
			default: // IMax
				r = x
				if y > x {
					r = y
				}
			}
			regs[op.dst].i = r
			cnt.Int++

		case opBinF:
			x, y := regs[op.a].f, regs[op.b].f
			var r float64
			switch ir.BinOp(op.aux) {
			case ir.FAdd:
				r = x + y
			case ir.FSub:
				r = x - y
			case ir.FMul:
				r = x * y
			default: // FDiv
				r = x / y
				cnt.FloatDiv++
				regs[op.dst].f = r
				pc++
				continue
			}
			regs[op.dst].f = r
			cnt.Float++

		case opCmpI:
			x, y := regs[op.a].i, regs[op.b].i
			regs[op.dst].i = b2i(cmpI(ir.CmpPred(op.aux), x, y))
			cnt.Int++

		case opCmpF:
			x, y := regs[op.a].f, regs[op.b].f
			regs[op.dst].i = b2i(cmpF(ir.CmpPred(op.aux), x, y))
			cnt.Int++

		case opCastIF:
			regs[op.dst].f = float64(regs[op.a].i)
			cnt.Int++

		case opCastFI:
			regs[op.dst].i = int64(regs[op.a].f)
			cnt.Int++

		case opMath:
			x := regs[op.a].f
			var r float64
			switch ir.MathOp(op.aux) {
			case ir.Sqrt:
				r = math.Sqrt(x)
			case ir.Sin:
				r = math.Sin(x)
			case ir.Cos:
				r = math.Cos(x)
			case ir.Fabs:
				r = math.Abs(x)
			case ir.Exp:
				r = math.Exp(x)
			case ir.Log:
				r = math.Log(x)
			default: // Floor
				r = math.Floor(x)
			}
			regs[op.dst].f = r
			cnt.MathOps++

		case opSelect:
			if regs[op.a].i != 0 {
				regs[op.dst] = regs[op.b]
			} else {
				regs[op.dst] = regs[op.c]
			}
			cnt.Int++

		case opLoadF:
			p := regs[op.a].p
			if !p.inBounds() {
				return val{}, memTrap(c.fn.Name, op.src, "load", p)
			}
			regs[op.dst].f = p.seg.F[p.off]
			cnt.Loads++
			if e.tracer != nil && !p.seg.Stack {
				e.tracer.Load(p.addr())
			}

		case opLoadI:
			p := regs[op.a].p
			if !p.inBounds() {
				return val{}, memTrap(c.fn.Name, op.src, "load", p)
			}
			regs[op.dst].i = p.seg.I[p.off]
			cnt.Loads++
			if e.tracer != nil && !p.seg.Stack {
				e.tracer.Load(p.addr())
			}

		case opStoreF:
			p := regs[op.b].p
			if !p.inBounds() {
				return val{}, memTrap(c.fn.Name, op.src, "store", p)
			}
			p.seg.F[p.off] = regs[op.a].f
			cnt.Stores++
			if e.tracer != nil && !p.seg.Stack {
				e.tracer.Store(p.addr())
			}

		case opStoreI:
			p := regs[op.b].p
			if !p.inBounds() {
				return val{}, memTrap(c.fn.Name, op.src, "store", p)
			}
			p.seg.I[p.off] = regs[op.a].i
			cnt.Stores++
			if e.tracer != nil && !p.seg.Stack {
				e.tracer.Store(p.addr())
			}

		case opPrefetch:
			// Prefetches never fault: out-of-bounds prefetches are dropped,
			// matching the non-binding semantics of builtin_prefetch.
			p := regs[op.a].p
			cnt.Prefetches++
			if p.inBounds() && !p.seg.Stack {
				if e.prefHook != nil {
					e.prefHook(op.src, p.addr())
				} else if e.tracer != nil {
					e.tracer.Prefetch(p.addr())
				}
			}

		case opGEP:
			base := regs[op.a].p
			off := regs[op.idx[0]].i
			for k := 1; k < len(op.idx); k++ {
				off = off*regs[op.dims[k]].i + regs[op.idx[k]].i
			}
			regs[op.dst].p = ptr{seg: base.seg, off: base.off + off}
			cnt.GEPs++

		case opCall:
			sub := make([]val, len(op.args))
			for i, r := range op.args {
				sub[i] = regs[r]
			}
			out, err := e.exec(op.callee, sub)
			if err != nil {
				return val{}, err
			}
			if op.dst >= 0 {
				regs[op.dst] = out
			}
			cnt.Calls++

		case opBr:
			for i, m := range op.moves0 {
				tmp[i] = regs[m.src]
			}
			for i, m := range op.moves0 {
				regs[m.dst] = tmp[i]
			}
			cnt.Branches++
			pc = op.t0
			continue

		case opCondBr:
			var moves []move
			var target int
			if regs[op.a].i != 0 {
				moves, target = op.moves0, op.t0
			} else {
				moves, target = op.moves1, op.t1
			}
			for i, m := range moves {
				tmp[i] = regs[m.src]
			}
			for i, m := range moves {
				regs[m.dst] = tmp[i]
			}
			cnt.Branches++
			pc = target
			continue

		case opRet:
			if op.a >= 0 {
				return regs[op.a], nil
			}
			return val{}, nil

		case opNop:
		}
		pc++
	}
	return val{}, fault.New(fault.KindVerify, "interp: fell off end of @%s", c.fn.Name)
}

// OpStats is the dynamic opcode histogram of a tree-oracle execution: how
// often each compiled op ran, and how often each ordered pair of ops ran
// back to back in the dynamic instruction stream. The histogram is the
// measurement that justifies the bytecode VM's superinstruction set (fuse
// the hottest pairs); see NewOracleEnv.
type OpStats struct {
	Ops   [numOpKinds]int64
	Pairs [numOpKinds][numOpKinds]int64
}

// Merge accumulates other into s.
func (s *OpStats) Merge(other *OpStats) {
	for i := range s.Ops {
		s.Ops[i] += other.Ops[i]
	}
	for i := range s.Pairs {
		for j := range s.Pairs[i] {
			s.Pairs[i][j] += other.Pairs[i][j]
		}
	}
}

// Total returns the total dynamic op count.
func (s *OpStats) Total() int64 {
	var n int64
	for _, v := range s.Ops {
		n += v
	}
	return n
}

// opNames spells the compiled-op kinds in histogram output.
var opNames = [numOpKinds]string{
	opBinI: "binI", opBinF: "binF", opCmpI: "cmpI", opCmpF: "cmpF",
	opCastIF: "castIF", opCastFI: "castFI", opMath: "math",
	opSelect: "select", opLoadF: "loadF", opLoadI: "loadI",
	opStoreF: "storeF", opStoreI: "storeI", opPrefetch: "prefetch",
	opGEP: "gep", opCall: "call", opBr: "br", opCondBr: "condbr",
	opRet: "ret", opNop: "nop",
}

// topPairs is how many op pairs Format lists.
const topPairs = 16

// Format renders the histogram as two tables: every executed op sorted by
// dynamic count, then the topPairs hottest ordered op pairs. Output is
// deterministic (count-descending, name tie-break) so it can be golden
// tested.
func (s *OpStats) Format() string {
	var b strings.Builder
	total := s.Total()
	fmt.Fprintf(&b, "dynamic op histogram (%d ops executed)\n", total)
	fmt.Fprintf(&b, "  %-10s %14s %7s\n", "op", "count", "share")
	type row struct {
		name  string
		count int64
	}
	var ops []row
	for k, n := range s.Ops {
		if n > 0 {
			ops = append(ops, row{opNames[k], n})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].count != ops[j].count {
			return ops[i].count > ops[j].count
		}
		return ops[i].name < ops[j].name
	})
	share := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(n) / float64(total)
	}
	for _, r := range ops {
		fmt.Fprintf(&b, "  %-10s %14d %6.2f%%\n", r.name, r.count, share(r.count))
	}
	var pairs []row
	for i := range s.Pairs {
		for j, n := range s.Pairs[i] {
			if n > 0 {
				pairs = append(pairs, row{opNames[i] + "->" + opNames[j], n})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].name < pairs[j].name
	})
	if len(pairs) > topPairs {
		pairs = pairs[:topPairs]
	}
	fmt.Fprintf(&b, "top op pairs (%d shown)\n", len(pairs))
	fmt.Fprintf(&b, "  %-20s %14s %7s\n", "pair", "count", "share")
	for _, r := range pairs {
		fmt.Fprintf(&b, "  %-20s %14d %6.2f%%\n", r.name, r.count, share(r.count))
	}
	return b.String()
}
