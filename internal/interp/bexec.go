package interp

import (
	"math"

	"dae/internal/fault"
	"dae/internal/ir"
	"dae/internal/mem"
)

// bframe is the reusable per-call state of the bytecode VM: three typed
// register planes, per-plane phi parallel-copy scratch, and the frame-local
// alloca segments. Seg structs are embedded so alloca pointers (&f.segF)
// stay valid for the frame's lifetime.
type bframe struct {
	ri   []int64
	rf   []float64
	rp   []ptr
	tmpI []int64
	tmpF []float64
	tmpP []ptr
	segF Seg
	segI Seg
}

func sizedI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func sizedF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func sizedPtr(s []ptr, n int) []ptr {
	if cap(s) < n {
		return make([]ptr, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// getBFrame pops (or creates) a frame and sizes it for bc. Register planes
// and stack slots are zeroed so reuse is observationally identical to fresh
// allocation; the move scratch is write-before-read and only needs capacity.
func (e *Env) getBFrame(bc *bcode) *bframe {
	var f *bframe
	if n := len(e.bfree); n > 0 {
		f = e.bfree[n-1]
		e.bfree = e.bfree[:n-1]
	} else {
		f = &bframe{segF: Seg{Elem: FloatElem, Stack: true}, segI: Seg{Elem: IntElem, Stack: true}}
	}
	f.ri = sizedI64(f.ri, bc.nI)
	f.rf = sizedF64(f.rf, bc.nF)
	f.rp = sizedPtr(f.rp, bc.nP)
	if cap(f.tmpI) < bc.maxMoves {
		f.tmpI = make([]int64, bc.maxMoves)
	}
	if cap(f.tmpF) < bc.maxMoves {
		f.tmpF = make([]float64, bc.maxMoves)
	}
	if cap(f.tmpP) < bc.maxMoves {
		f.tmpP = make([]ptr, bc.maxMoves)
	}
	f.segF.F = sizedF64(f.segF.F, bc.nStackF)
	f.segI.I = sizedI64(f.segI.I, bc.nStackI)
	return f
}

func (e *Env) putBFrame(f *bframe) { e.bfree = append(e.bfree, f) }

// brun executes bc in a pooled frame with top-level arguments placed into
// their parameter registers. The frame returns to the freelist on every exit
// path (results are scalars; nothing aliases the recycled stack segments).
func (e *Env) brun(bc *bcode, args []Value) (val, error) {
	fr := e.getBFrame(bc)
	for i, a := range args {
		pr := bc.params[i]
		switch pr.pl {
		case planeI:
			fr.ri[pr.reg] = a.v.i
		case planeF:
			fr.rf[pr.reg] = a.v.f
		default:
			fr.rp[pr.reg] = a.v.p
		}
	}
	v, err := e.bexec(bc, fr)
	e.putBFrame(fr)
	return v, err
}

// move1 performs a single-move branch edge: the dominant case (a loop-carried
// phi accumulator) on the numeric kernels' back edges. It is small enough to
// inline into the dispatch loop, so the per-iteration copy costs no call.
func move1(ri []int64, rf []float64, rp []ptr, bc *bcode, arm *barm) {
	m := &bc.moves[arm.moff]
	switch m.pl {
	case planeI:
		ri[m.dst] = ri[m.src]
	case planeF:
		rf[m.dst] = rf[m.src]
	default:
		rp[m.dst] = rp[m.src]
	}
}

// applyArm performs the phi parallel copies of one multi-move branch edge:
// every source is read before any destination is written (cyclic copies);
// planes never interact, so per-plane scratch preserves tree semantics.
// Call sites guard on mlen (zero-move edges are call-free, single moves go
// through the inlined move1), so only genuine parallel copies land here.
func applyArm(fr *bframe, bc *bcode, arm *barm) {
	ms := bc.moves[arm.moff : arm.moff+arm.mlen]
	var tI, tF, tP int
	for _, m := range ms {
		switch m.pl {
		case planeI:
			fr.tmpI[tI] = fr.ri[m.src]
			tI++
		case planeF:
			fr.tmpF[tF] = fr.rf[m.src]
			tF++
		default:
			fr.tmpP[tP] = fr.rp[m.src]
			tP++
		}
	}
	tI, tF, tP = 0, 0, 0
	for _, m := range ms {
		switch m.pl {
		case planeI:
			fr.ri[m.dst] = fr.tmpI[tI]
			tI++
		case planeF:
			fr.rf[m.dst] = fr.tmpF[tF]
			tF++
		default:
			fr.rp[m.dst] = fr.tmpP[tP]
			tP++
		}
	}
}

// bexec is the bytecode dispatch loop. Per executed component op (fused
// superinstructions count each component separately) it increments the step
// counter and runs the amortized budget/context check, keeping step
// accounting, budget faults, and timeout positions byte-identical to the
// tree engine. Memory instructions carry the fused cache probe: with a
// Hierarchy installed they feed it directly, skipping the Tracer interface.
//
// The step counter and check boundary live in locals (flushed to the Env at
// every exit, stepCheck, and call boundary) so the per-op accounting is a
// register increment instead of a heap read-modify-write.
func (e *Env) bexec(bc *bcode, fr *bframe) (val, error) {
	ri, rf, rp := fr.ri, fr.rf, fr.rp
	for _, ci := range bc.consts {
		if ci.pl == planeF {
			rf[ci.reg] = ci.f
		} else {
			ri[ci.reg] = ci.i
		}
	}
	// Frame-local stack segments for allocas: marked Stack, no memory events.
	for _, a := range bc.allocas {
		if a.elem == FloatElem {
			rp[a.reg] = ptr{seg: &fr.segF, off: a.slot}
		} else {
			rp[a.reg] = ptr{seg: &fr.segI, off: a.slot}
		}
	}

	cnt := &e.counts
	hier, tracer, prefHook := e.hier, e.tracer, e.prefHook
	steps, checkAt := e.steps, e.checkAt
	ins := bc.ins
	pc := 0
	for pc < len(ins) {
		in := &ins[pc]
		steps++
		if steps >= checkAt {
			e.steps = steps
			if err := e.stepCheck(bc.fn.Name, bc.src[pc]); err != nil {
				return val{}, err
			}
			checkAt = e.checkAt
		}
		switch in.op {
		case bBinI:
			x, y := ri[in.a], ri[in.b]
			var r int64
			switch ir.BinOp(in.aux) {
			case ir.IAdd:
				r = x + y
			case ir.ISub:
				r = x - y
			case ir.IMul:
				r = x * y
			case ir.IDiv:
				if y == 0 {
					e.steps = steps
					return val{}, trap(fault.TrapDivByZero, bc.fn.Name, bc.src[pc], "interp: integer division by zero")
				}
				r = x / y
			case ir.IRem:
				if y == 0 {
					e.steps = steps
					return val{}, trap(fault.TrapDivByZero, bc.fn.Name, bc.src[pc], "interp: integer remainder by zero")
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
			ri[in.dst] = r
			cnt.Int++

		case bBinF:
			x, y := rf[in.a], rf[in.b]
			var r float64
			switch ir.BinOp(in.aux) {
			case ir.FAdd:
				r = x + y
			case ir.FSub:
				r = x - y
			case ir.FMul:
				r = x * y
			default: // FDiv
				rf[in.dst] = x / y
				cnt.FloatDiv++
				pc++
				continue
			}
			rf[in.dst] = r
			cnt.Float++

		case bCmpI:
			ri[in.dst] = b2i(cmpI(ir.CmpPred(in.aux), ri[in.a], ri[in.b]))
			cnt.Int++

		case bCmpF:
			ri[in.dst] = b2i(cmpF(ir.CmpPred(in.aux), rf[in.a], rf[in.b]))
			cnt.Int++

		case bCastIF:
			rf[in.dst] = float64(ri[in.a])
			cnt.Int++

		case bCastFI:
			ri[in.dst] = int64(rf[in.a])
			cnt.Int++

		case bMath:
			x := rf[in.a]
			var r float64
			switch ir.MathOp(in.aux) {
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
			rf[in.dst] = r
			cnt.MathOps++

		case bSelI:
			if ri[in.a] != 0 {
				ri[in.dst] = ri[in.b]
			} else {
				ri[in.dst] = ri[in.c]
			}
			cnt.Int++

		case bSelF:
			if ri[in.a] != 0 {
				rf[in.dst] = rf[in.b]
			} else {
				rf[in.dst] = rf[in.c]
			}
			cnt.Int++

		case bSelP:
			if ri[in.a] != 0 {
				rp[in.dst] = rp[in.b]
			} else {
				rp[in.dst] = rp[in.c]
			}
			cnt.Int++

		case bLoadF:
			p := rp[in.a]
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src[pc], "load", p)
			}
			rf[in.dst] = p.seg.F[p.off]
			cnt.Loads++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Load) {
						hier.Access(a, mem.Load)
					}
				} else if tracer != nil {
					tracer.Load(p.addr())
				}
			}

		case bLoadI:
			p := rp[in.a]
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src[pc], "load", p)
			}
			ri[in.dst] = p.seg.I[p.off]
			cnt.Loads++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Load) {
						hier.Access(a, mem.Load)
					}
				} else if tracer != nil {
					tracer.Load(p.addr())
				}
			}

		case bStoreF:
			p := rp[in.b]
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src[pc], "store", p)
			}
			p.seg.F[p.off] = rf[in.a]
			cnt.Stores++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Store) {
						hier.Access(a, mem.Store)
					}
				} else if tracer != nil {
					tracer.Store(p.addr())
				}
			}

		case bStoreI:
			p := rp[in.b]
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src[pc], "store", p)
			}
			p.seg.I[p.off] = ri[in.a]
			cnt.Stores++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Store) {
						hier.Access(a, mem.Store)
					}
				} else if tracer != nil {
					tracer.Store(p.addr())
				}
			}

		case bPrefetch:
			// Prefetches never fault: out-of-bounds prefetches are dropped,
			// matching the non-binding semantics of builtin_prefetch.
			p := rp[in.a]
			cnt.Prefetches++
			if p.inBounds() && !p.seg.Stack {
				if prefHook != nil {
					prefHook(bc.src[pc], p.addr())
				} else if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Prefetch) {
						hier.Access(a, mem.Prefetch)
					}
				} else if tracer != nil {
					tracer.Prefetch(p.addr())
				}
			}

		case bGEP1:
			p := rp[in.a]
			rp[in.dst] = ptr{seg: p.seg, off: p.off + ri[in.b]}
			cnt.GEPs++

		case bGEP:
			base := rp[in.a]
			pool := bc.pool[in.b:]
			off := ri[pool[0]]
			for k := 1; k < int(in.c); k++ {
				off = off*ri[pool[2*k-1]] + ri[pool[2*k]]
			}
			rp[in.dst] = ptr{seg: base.seg, off: base.off + off}
			cnt.GEPs++

		case bCall:
			cb := bc.callees[in.c]
			fr2 := e.getBFrame(cb)
			for _, m := range bc.moves[in.a : in.a+in.b] {
				switch m.pl {
				case planeI:
					fr2.ri[m.dst] = ri[m.src]
				case planeF:
					fr2.rf[m.dst] = rf[m.src]
				default:
					fr2.rp[m.dst] = rp[m.src]
				}
			}
			e.steps = steps
			out, err := e.bexec(cb, fr2)
			e.putBFrame(fr2)
			if err != nil {
				return val{}, err
			}
			steps, checkAt = e.steps, e.checkAt
			switch plane(in.aux) {
			case planeI:
				ri[in.dst] = out.i
			case planeF:
				rf[in.dst] = out.f
			case planeP:
				rp[in.dst] = out.p
			}
			cnt.Calls++

		case bBr:
			arm := &bc.arms[in.a]
			if arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			pc = int(arm.target)
			continue

		case bCondBr:
			arm := &bc.arms[in.b]
			if ri[in.a] == 0 {
				arm = &bc.arms[in.b+1]
			}
			if arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			pc = int(arm.target)
			continue

		case bRet:
			e.steps = steps
			switch plane(in.aux) {
			case planeI:
				return val{i: ri[in.a]}, nil
			case planeF:
				return val{f: rf[in.a]}, nil
			case planeP:
				return val{p: rp[in.a]}, nil
			}
			return val{}, nil

		case bNop:

		case bCmpBrI:
			x := b2i(cmpI(ir.CmpPred(in.aux), ri[in.a], ri[in.b]))
			ri[in.dst] = x
			cnt.Int++
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			arm := &bc.arms[in.c]
			if x == 0 {
				arm = &bc.arms[in.c+1]
			}
			if arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			pc = int(arm.target)
			continue

		case bCmpBrF:
			x := b2i(cmpF(ir.CmpPred(in.aux), rf[in.a], rf[in.b]))
			ri[in.dst] = x
			cnt.Int++
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			arm := &bc.arms[in.c]
			if x == 0 {
				arm = &bc.arms[in.c+1]
			}
			if arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			pc = int(arm.target)
			continue

		case bIncBr:
			ri[in.dst] = ri[in.a] + ri[in.b]
			cnt.Int++
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			arm := &bc.arms[in.c]
			if arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			pc = int(arm.target)
			continue

		case bIncCmpBr:
			ri[in.dst] = ri[in.a] + ri[in.b]
			cnt.Int++
			steps++
			if steps >= checkAt { // back-edge br component
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			po := bc.pool[in.c : in.c+5 : in.c+5]
			if arm := &bc.arms[po[0]]; arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			steps++
			if steps >= checkAt { // header cmp component
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src3[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			x := b2i(cmpI(ir.CmpPred(in.aux), ri[po[2]], ri[po[3]]))
			ri[po[1]] = x
			cnt.Int++
			steps++
			if steps >= checkAt { // header condbr component
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src4[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			arm := &bc.arms[po[4]]
			if x == 0 {
				arm = &bc.arms[po[4]+1]
			}
			if arm.mlen == 1 {
				move1(ri, rf, rp, bc, arm)
			} else if arm.mlen != 0 {
				applyArm(fr, bc, arm)
			}
			cnt.Branches++
			pc = int(arm.target)
			continue

		case bLoadPreF:
			p := rp[in.a]
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src[pc], "load", p)
			}
			rf[in.dst] = p.seg.F[p.off]
			cnt.Loads++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Load) {
						hier.Access(a, mem.Load)
					}
				} else if tracer != nil {
					tracer.Load(p.addr())
				}
			}
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			q := rp[in.b]
			cnt.Prefetches++
			if q.inBounds() && !q.seg.Stack {
				if prefHook != nil {
					prefHook(bc.src2[pc], q.addr())
				} else if hier != nil {
					if a := q.addr(); !hier.AccessHit(a, mem.Prefetch) {
						hier.Access(a, mem.Prefetch)
					}
				} else if tracer != nil {
					tracer.Prefetch(q.addr())
				}
			}

		case bLoadPreI:
			p := rp[in.a]
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src[pc], "load", p)
			}
			ri[in.dst] = p.seg.I[p.off]
			cnt.Loads++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Load) {
						hier.Access(a, mem.Load)
					}
				} else if tracer != nil {
					tracer.Load(p.addr())
				}
			}
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			q := rp[in.b]
			cnt.Prefetches++
			if q.inBounds() && !q.seg.Stack {
				if prefHook != nil {
					prefHook(bc.src2[pc], q.addr())
				} else if hier != nil {
					if a := q.addr(); !hier.AccessHit(a, mem.Prefetch) {
						hier.Access(a, mem.Prefetch)
					}
				} else if tracer != nil {
					tracer.Prefetch(q.addr())
				}
			}

		case bGEPLoadF, bGEPLoadI, bGEPNLoadF, bGEPNLoadI:
			var p ptr
			if in.op == bGEPLoadF || in.op == bGEPLoadI {
				base := rp[in.a]
				p = ptr{seg: base.seg, off: base.off + ri[in.b]}
			} else {
				base := rp[in.a]
				pool := bc.pool[in.b:]
				off := ri[pool[0]]
				for k := 1; k < int(in.c); k++ {
					off = off*ri[pool[2*k-1]] + ri[pool[2*k]]
				}
				p = ptr{seg: base.seg, off: base.off + off}
			}
			rp[in.dst] = p
			cnt.GEPs++
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			if !p.inBounds() {
				e.steps = steps
				return val{}, memTrap(bc.fn.Name, bc.src2[pc], "load", p)
			}
			switch in.op {
			case bGEPLoadF:
				rf[in.c] = p.seg.F[p.off]
			case bGEPLoadI:
				ri[in.c] = p.seg.I[p.off]
			case bGEPNLoadF:
				rf[in.d] = p.seg.F[p.off]
			default:
				ri[in.d] = p.seg.I[p.off]
			}
			cnt.Loads++
			if !p.seg.Stack {
				if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Load) {
						hier.Access(a, mem.Load)
					}
				} else if tracer != nil {
					tracer.Load(p.addr())
				}
			}

		case bGEPPre, bGEPNPre:
			var p ptr
			if in.op == bGEPPre {
				base := rp[in.a]
				p = ptr{seg: base.seg, off: base.off + ri[in.b]}
			} else {
				base := rp[in.a]
				pool := bc.pool[in.b:]
				off := ri[pool[0]]
				for k := 1; k < int(in.c); k++ {
					off = off*ri[pool[2*k-1]] + ri[pool[2*k]]
				}
				p = ptr{seg: base.seg, off: base.off + off}
			}
			rp[in.dst] = p
			cnt.GEPs++
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			cnt.Prefetches++
			if p.inBounds() && !p.seg.Stack {
				if prefHook != nil {
					prefHook(bc.src2[pc], p.addr())
				} else if hier != nil {
					if a := p.addr(); !hier.AccessHit(a, mem.Prefetch) {
						hier.Access(a, mem.Prefetch)
					}
				} else if tracer != nil {
					tracer.Prefetch(p.addr())
				}
			}

		case bBinFF:
			x, y := rf[in.a], rf[in.b]
			var r float64
			op1 := ir.BinOp(in.aux)
			switch op1 {
			case ir.FAdd:
				r = x + y
			case ir.FSub:
				r = x - y
			case ir.FMul:
				r = x * y
			default: // FDiv
				r = x / y
			}
			rf[in.dst] = r
			if op1 == ir.FDiv {
				cnt.FloatDiv++
			} else {
				cnt.Float++
			}
			steps++
			if steps >= checkAt {
				e.steps = steps
				if err := e.stepCheck(bc.fn.Name, bc.src2[pc]); err != nil {
					return val{}, err
				}
				checkAt = e.checkAt
			}
			x2, y2 := r, rf[in.c]
			if in.aux2&binFFRight != 0 {
				x2, y2 = y2, x2
			}
			var r2 float64
			op2 := ir.BinOp(in.aux2 &^ binFFRight)
			switch op2 {
			case ir.FAdd:
				r2 = x2 + y2
			case ir.FSub:
				r2 = x2 - y2
			case ir.FMul:
				r2 = x2 * y2
			default: // FDiv
				r2 = x2 / y2
			}
			rf[in.d] = r2
			if op2 == ir.FDiv {
				cnt.FloatDiv++
			} else {
				cnt.Float++
			}
		}
		pc++
	}
	e.steps = steps
	return val{}, fault.New(fault.KindVerify, "interp: fell off end of @%s", bc.fn.Name)
}
