// Package passes implements the classic scalar optimizations the paper's
// compiler applies before deriving access phases: SSA construction
// (mem2reg), constant folding, dead-code elimination, CFG simplification,
// and function inlining. RunO3 chains them to a fixpoint.
package passes

import "dae/internal/ir"

// Mem2Reg promotes scalar allocas to SSA registers, inserting phis at
// iterated dominance frontiers (the standard SSA construction algorithm).
// It returns the number of promoted allocas.
func Mem2Reg(f *ir.Func) int {
	f.RemoveUnreachable()
	dt := ir.NewDomTree(f)
	df := dt.Frontiers()

	// Collect promotable allocas: every use is a direct Load or a Store's
	// pointer operand. (The front end only produces such allocas, but guard
	// anyway so hand-built IR is safe.)
	allocas := promotable(f)
	if len(allocas) == 0 {
		return 0
	}

	// Phase 1: place phis at the iterated dominance frontier of each
	// alloca's defining blocks.
	phiFor := make(map[*ir.Phi]*ir.Alloca)
	for _, a := range allocas {
		defBlocks := make(map[*ir.Block]bool)
		f.Instrs(func(in ir.Instr) {
			if st, ok := in.(*ir.Store); ok && st.Ptr == a {
				defBlocks[in.Parent()] = true
			}
		})
		hasPhi := make(map[*ir.Block]bool)
		// Seed the worklist in block order, not map order: phis take their
		// SSA numbers in insertion order, so a map-ordered seed would number
		// the same function differently from one build to the next.
		work := make([]*ir.Block, 0, len(defBlocks))
		for _, b := range f.Blocks {
			if defBlocks[b] {
				work = append(work, b)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range df[b] {
				if hasPhi[y] {
					continue
				}
				hasPhi[y] = true
				phi := ir.NewPhi(a.Type().Elem, a.Var)
				insertPhi(y, phi)
				phiFor[phi] = a
				if !defBlocks[y] {
					work = append(work, y)
				}
			}
		}
	}

	// Phase 2: rename along the dominator tree.
	type frame struct {
		b     *ir.Block
		saved map[*ir.Alloca]ir.Value
	}
	cur := make(map[*ir.Alloca]ir.Value, len(allocas))
	allocaSet := make(map[ir.Value]*ir.Alloca, len(allocas))
	for _, a := range allocas {
		allocaSet[a] = a
	}

	var rename func(b *ir.Block)
	rename = func(b *ir.Block) {
		saved := make(map[*ir.Alloca]ir.Value)
		record := func(a *ir.Alloca) {
			if _, ok := saved[a]; !ok {
				saved[a] = cur[a]
			}
		}

		var dead []ir.Instr
		for _, in := range b.Instrs {
			switch x := in.(type) {
			case *ir.Phi:
				if a, ok := phiFor[x]; ok {
					record(a)
					cur[a] = x
				}
			case *ir.Load:
				if a, ok := allocaSet[x.Ptr]; ok {
					v := cur[a]
					if v == nil {
						v = zeroOf(a.Type().Elem)
					}
					f.ReplaceAllUses(x, v)
					dead = append(dead, x)
				}
			case *ir.Store:
				if a, ok := allocaSet[x.Ptr]; ok {
					record(a)
					cur[a] = x.Val
					dead = append(dead, x)
				}
			}
		}

		// Fill phi operands of successors with current values.
		for _, s := range b.Succs() {
			for _, phi := range s.Phis() {
				a, ok := phiFor[phi]
				if !ok {
					continue
				}
				v := cur[a]
				if v == nil {
					v = zeroOf(a.Type().Elem)
				}
				phi.AddIncoming(v, b)
			}
		}

		for _, c := range dt.Children(b) {
			rename(c)
		}
		for _, in := range dead {
			b.Remove(in)
		}
		for a, v := range saved {
			cur[a] = v
		}
	}
	rename(f.Entry())

	// Remove the allocas themselves.
	for _, a := range allocas {
		a.Parent().Remove(a)
	}
	return len(allocas)
}

func promotable(f *ir.Func) []*ir.Alloca {
	var allocas []*ir.Alloca
	bad := make(map[ir.Value]bool)
	f.Instrs(func(in ir.Instr) {
		for i, op := range in.Operands() {
			a, ok := op.(*ir.Alloca)
			if !ok {
				continue
			}
			switch x := in.(type) {
			case *ir.Load:
				// ok
			case *ir.Store:
				if i != 1 || x.Val == op {
					bad[a] = true
				}
			default:
				bad[a] = true
			}
		}
	})
	f.Instrs(func(in ir.Instr) {
		if a, ok := in.(*ir.Alloca); ok && !bad[a] {
			allocas = append(allocas, a)
		}
	})
	return allocas
}

func insertPhi(b *ir.Block, phi *ir.Phi) {
	i := b.FirstNonPhi()
	if i < len(b.Instrs) {
		b.InsertBefore(phi, b.Instrs[i])
		return
	}
	// Block of only phis cannot happen (must have terminator), but guard.
	b.Append(phi)
}

func zeroOf(t *ir.Type) ir.Value {
	switch {
	case t.IsFloat():
		return ir.CF(0)
	case t.IsBool():
		return ir.CB(false)
	default:
		return ir.CI(0)
	}
}
