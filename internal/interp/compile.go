package interp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dae/internal/ir"
)

// opKind enumerates the register-machine opcodes.
type opKind uint8

const (
	opBinI   opKind = iota // integer arithmetic; aux = ir.BinOp
	opBinF                 // float arithmetic; aux = ir.BinOp
	opCmpI                 // integer/bool compare; aux = ir.CmpPred
	opCmpF                 // float compare; aux = ir.CmpPred
	opCastIF               // int → float
	opCastFI               // float → int
	opMath                 // aux = ir.MathOp
	opSelect
	opLoadF
	opLoadI
	opStoreF
	opStoreI
	opPrefetch
	opGEP
	opCall
	opBr
	opCondBr
	opRet
	opNop
)

// numOpKinds sizes the OpStats histograms.
const numOpKinds = int(opNop) + 1

// move is one phi-edge register copy.
type move struct {
	src int
	dst int
}

// cop is one compiled operation.
type cop struct {
	kind opKind
	aux  uint8
	dst  int
	a    int
	b    int
	c    int
	// gep
	dims []int
	idx  []int
	// branch targets (code offsets) and their phi move lists
	t0, t1         int
	moves0, moves1 []move
	// call
	callee *code
	args   []int
	// src is the originating IR instruction: profiling attributes prefetch
	// events to it, and trap/budget faults report it as their position.
	src ir.Instr
}

// constReg is a register pre-initialized with a constant at frame entry.
type constReg struct {
	reg int
	v   val
}

// allocaReg is a register pre-initialized with a frame-local stack pointer.
type allocaReg struct {
	reg  int
	elem ElemKind
	slot int64 // element index within the frame's stack segment of that kind
}

// code is a compiled function body.
type code struct {
	fn        *ir.Func
	nregs     int
	regPlane  []plane // typed plane of each register, for the bytecode lowering
	params    []int   // register of each parameter
	consts    []constReg
	allocas   []allocaReg
	nStackF   int
	nStackI   int
	ops       []cop
	maxMoves  int
	hasResult bool
}

// Program compiles IR functions on demand and caches the result. Bytecode
// lookups read an immutable published snapshot through an atomic pointer,
// so parallel collection workers sharing one Program never contend on a lock
// in steady state; the mutex only serializes compilation of functions absent
// from the snapshot. The compiled code itself is immutable after
// construction.
type Program struct {
	mod *ir.Module

	// snap is the immutable published copy of bcache, rebuilt and
	// republished after every translation. Readers load it lock-free;
	// writers mutate the master maps below under mu and publish fresh
	// copies.
	snap atomic.Pointer[map[*ir.Func]*bcode]

	mu     sync.Mutex
	cache  map[*ir.Func]*code  // master tree map; nil entry = in-progress (recursion guard)
	bcache map[*ir.Func]*bcode // master bytecode map; same guard convention
}

// NewProgram returns a compilation cache for mod. The module is not copied;
// callers must not mutate functions after their first execution.
func NewProgram(mod *ir.Module) *Program {
	return &Program{
		mod:    mod,
		cache:  make(map[*ir.Func]*code),
		bcache: make(map[*ir.Func]*bcode),
	}
}

// compiled returns the compiled form of f. Only the tree oracle runs it
// directly, so it is looked up under the lock, without a snapshot.
func (p *Program) compiled(f *ir.Func) (*code, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.compiledLocked(f)
}

// bytecode returns the register-bytecode form of f, compiling (and caching)
// the tree form first: the bytecode is a translation of the compiled ops, so
// both engines agree structurally by construction.
func (p *Program) bytecode(f *ir.Func) (*bcode, error) {
	if s := p.snap.Load(); s != nil {
		if b, ok := (*s)[f]; ok {
			return b, nil
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	c, err := p.compiledLocked(f)
	if err != nil {
		return nil, err
	}
	b, err := p.bytecodeLocked(c)
	if err != nil {
		return nil, err
	}
	p.publishLocked()
	return b, nil
}

// publishLocked rebuilds and publishes the immutable snapshot from the
// master bytecode map. In-progress (nil) entries are excluded.
func (p *Program) publishLocked() {
	s := make(map[*ir.Func]*bcode, len(p.bcache))
	for f, b := range p.bcache {
		if b != nil {
			s[f] = b
		}
	}
	p.snap.Store(&s)
}

// bytecodeLocked translates c (and, recursively, its callees) under the lock.
func (p *Program) bytecodeLocked(c *code) (*bcode, error) {
	if b, ok := p.bcache[c.fn]; ok {
		if b == nil {
			return nil, fmt.Errorf("interp: recursive call to @%s", c.fn.Name)
		}
		return b, nil
	}
	p.bcache[c.fn] = nil // recursion guard (the tree compiler already rejects cycles)
	b, err := translate(p, c)
	if err != nil {
		delete(p.bcache, c.fn)
		return nil, err
	}
	p.bcache[c.fn] = b
	return b, nil
}

// compiledLocked is compiled without the lock; the compiler's recursive
// callee resolution runs entirely under the outer call's lock.
func (p *Program) compiledLocked(f *ir.Func) (*code, error) {
	if c, ok := p.cache[f]; ok {
		if c == nil {
			return nil, fmt.Errorf("interp: recursive call to @%s", f.Name)
		}
		return c, nil
	}
	p.cache[f] = nil // recursion guard
	c, err := p.compile(f)
	if err != nil {
		delete(p.cache, f)
		return nil, err
	}
	p.cache[f] = c
	return c, nil
}

type compiler struct {
	prog   *Program
	c      *code
	regOf  map[ir.Value]int
	blocks []*ir.Block
	bOff   map[*ir.Block]int

	// cur is the IR instruction being compiled; emit stamps it onto every op
	// so runtime faults can report their source position.
	cur ir.Instr

	// patch records ops whose branch targets must be resolved after layout.
	patch []patchEntry
}

type patchEntry struct {
	op     int
	b0, b1 *ir.Block
}

func (p *Program) compile(f *ir.Func) (*code, error) {
	cp := &compiler{
		prog:  p,
		c:     &code{fn: f, hasResult: !f.RetType.IsVoid()},
		regOf: make(map[ir.Value]int),
		bOff:  make(map[*ir.Block]int),
	}
	// Use only reachable blocks, entry first.
	cp.blocks = f.ReversePostorder()
	if len(cp.blocks) == 0 {
		return nil, fmt.Errorf("interp: function @%s has no blocks", f.Name)
	}

	for _, prm := range f.Params {
		cp.c.params = append(cp.c.params, cp.reg(prm))
	}

	// Assign registers to every instruction result and set up allocas.
	for _, b := range cp.blocks {
		for _, in := range b.Instrs {
			if in.Type().IsVoid() {
				continue
			}
			r := cp.reg(in)
			if a, ok := in.(*ir.Alloca); ok {
				elem := FloatElem
				slot := &cp.c.nStackF
				if !a.Type().Elem.IsFloat() {
					elem = IntElem
					slot = &cp.c.nStackI
				}
				cp.c.allocas = append(cp.c.allocas, allocaReg{reg: r, elem: elem, slot: int64(*slot)})
				*slot++
			}
		}
	}

	for _, b := range cp.blocks {
		cp.bOff[b] = len(cp.c.ops)
		for _, in := range b.Instrs {
			if err := cp.instr(b, in); err != nil {
				return nil, err
			}
		}
	}
	for i := range cp.c.ops {
		if n := len(cp.c.ops[i].moves0); n > cp.c.maxMoves {
			cp.c.maxMoves = n
		}
		if n := len(cp.c.ops[i].moves1); n > cp.c.maxMoves {
			cp.c.maxMoves = n
		}
	}
	// Patch branch targets.
	for _, pe := range cp.patch {
		op := &cp.c.ops[pe.op]
		if pe.b0 != nil {
			op.t0 = cp.bOff[pe.b0]
		}
		if pe.b1 != nil {
			op.t1 = cp.bOff[pe.b1]
		}
	}
	return cp.c, nil
}

// planeOf maps an IR type to the typed register plane that holds its values
// in the bytecode VM. Bools live in the integer plane as 0/1, matching the
// tree engine's val.i convention.
func planeOf(t *ir.Type) plane {
	switch {
	case t.IsFloat():
		return planeF
	case t.IsPtr():
		return planeP
	default:
		return planeI
	}
}

// reg returns the register index of v, allocating one if needed. Constants
// get a dedicated register recorded in the const-init list.
func (cp *compiler) reg(v ir.Value) int {
	if r, ok := cp.regOf[v]; ok {
		return r
	}
	r := cp.c.nregs
	cp.c.nregs++
	cp.regOf[v] = r
	cp.c.regPlane = append(cp.c.regPlane, planeOf(v.Type()))
	switch k := v.(type) {
	case *ir.ConstInt:
		cp.c.consts = append(cp.c.consts, constReg{reg: r, v: val{i: k.V}})
	case *ir.ConstFloat:
		cp.c.consts = append(cp.c.consts, constReg{reg: r, v: val{f: k.V}})
	case *ir.ConstBool:
		b := int64(0)
		if k.V {
			b = 1
		}
		cp.c.consts = append(cp.c.consts, constReg{reg: r, v: val{i: b}})
	}
	return r
}

// edgeMoves builds the phi copies for the CFG edge from → to.
func (cp *compiler) edgeMoves(from, to *ir.Block) []move {
	var ms []move
	for _, phi := range to.Phis() {
		in := phi.Incoming(from)
		if in == nil {
			continue
		}
		ms = append(ms, move{src: cp.reg(in), dst: cp.reg(phi)})
	}
	return ms
}

func (cp *compiler) emit(op cop) int {
	if op.src == nil {
		op.src = cp.cur
	}
	cp.c.ops = append(cp.c.ops, op)
	return len(cp.c.ops) - 1
}

func (cp *compiler) instr(b *ir.Block, in ir.Instr) error {
	cp.cur = in
	switch x := in.(type) {
	case *ir.Phi:
		return nil // handled by edge moves
	case *ir.Alloca:
		return nil // handled by frame setup

	case *ir.Bin:
		kind := opBinI
		if x.Op.IsFloat() {
			kind = opBinF
		}
		cp.emit(cop{kind: kind, aux: uint8(x.Op), dst: cp.reg(x), a: cp.reg(x.X), b: cp.reg(x.Y)})

	case *ir.Cmp:
		kind := opCmpI
		if x.X.Type().IsFloat() {
			kind = opCmpF
		}
		cp.emit(cop{kind: kind, aux: uint8(x.Pred), dst: cp.reg(x), a: cp.reg(x.X), b: cp.reg(x.Y)})

	case *ir.Cast:
		kind := opCastIF
		if x.Op == ir.FloatToInt {
			kind = opCastFI
		}
		cp.emit(cop{kind: kind, dst: cp.reg(x), a: cp.reg(x.X)})

	case *ir.Math:
		cp.emit(cop{kind: opMath, aux: uint8(x.Op), dst: cp.reg(x), a: cp.reg(x.X)})

	case *ir.Select:
		cp.emit(cop{kind: opSelect, dst: cp.reg(x), a: cp.reg(x.Cond), b: cp.reg(x.X), c: cp.reg(x.Y)})

	case *ir.Load:
		kind := opLoadF
		if !x.Type().IsFloat() {
			kind = opLoadI
		}
		cp.emit(cop{kind: kind, dst: cp.reg(x), a: cp.reg(x.Ptr)})

	case *ir.Store:
		kind := opStoreF
		if !x.Val.Type().IsFloat() {
			kind = opStoreI
		}
		cp.emit(cop{kind: kind, a: cp.reg(x.Val), b: cp.reg(x.Ptr)})

	case *ir.Prefetch:
		cp.emit(cop{kind: opPrefetch, a: cp.reg(x.Ptr), src: x})

	case *ir.GEP:
		dims := make([]int, len(x.Dims))
		for i, d := range x.Dims {
			dims[i] = cp.reg(d)
		}
		idx := make([]int, len(x.Idx))
		for i, v := range x.Idx {
			idx[i] = cp.reg(v)
		}
		cp.emit(cop{kind: opGEP, dst: cp.reg(x), a: cp.reg(x.Base), dims: dims, idx: idx})

	case *ir.Call:
		callee, err := cp.prog.compiledLocked(x.Callee)
		if err != nil {
			return err
		}
		args := make([]int, len(x.Args))
		for i, a := range x.Args {
			args[i] = cp.reg(a)
		}
		op := cop{kind: opCall, callee: callee, args: args}
		if !x.Type().IsVoid() {
			op.dst = cp.reg(x)
		} else {
			op.dst = -1
		}
		cp.emit(op)

	case *ir.Br:
		i := cp.emit(cop{kind: opBr, moves0: cp.edgeMoves(b, x.Target)})
		cp.patch = append(cp.patch, patchEntry{op: i, b0: x.Target})

	case *ir.CondBr:
		i := cp.emit(cop{
			kind:   opCondBr,
			a:      cp.reg(x.Cond),
			moves0: cp.edgeMoves(b, x.Then),
			moves1: cp.edgeMoves(b, x.Else),
		})
		cp.patch = append(cp.patch, patchEntry{op: i, b0: x.Then, b1: x.Else})

	case *ir.Ret:
		op := cop{kind: opRet, a: -1}
		if x.X != nil {
			op.a = cp.reg(x.X)
		}
		cp.emit(op)

	default:
		return fmt.Errorf("interp: cannot compile %T", in)
	}
	return nil
}
