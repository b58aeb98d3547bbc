// Package dae implements the paper's contribution: automatic generation of
// the access phase of a task under the decoupled access-execute model.
//
// Two strategies are implemented, mirroring §5 of the paper:
//
//   - The affine strategy (§5.1) applies when the task is a pure affine loop
//     nest. Using the polyhedral machinery of internal/poly it computes, per
//     access class, the convex union of the touched index-space cells,
//     checks the NConvUn ≤ NOrig profitability condition by exact counting,
//     merges compatible per-class loop nests, and regenerates a minimal-depth
//     prefetch loop nest.
//
//   - The skeleton strategy (§5.2) applies otherwise: it clones the task,
//     marks address computations and loop control through use-def chains,
//     simplifies away loop-body conditionals that do not affect loop control,
//     attaches a prefetch to every read of task-external data, drops stores,
//     and lets the standard cleanups (-O3) shrink the result.
package dae

import (
	"fmt"
	"sort"

	"dae/internal/ir"
	"dae/internal/poly"
	"dae/internal/scev"
)

// space maps scev symbols (loop-invariant ir.Values) to polyhedral parameter
// indices, shared by every access of a task so that classes and bounds are
// expressed over one coherent parameter vector.
type space struct {
	syms  []ir.Value
	index map[ir.Value]int
}

func newSpace() *space {
	return &space{index: make(map[ir.Value]int)}
}

func (s *space) symIndex(v ir.Value) int {
	if i, ok := s.index[v]; ok {
		return i
	}
	i := len(s.syms)
	s.syms = append(s.syms, v)
	s.index[v] = i
	return i
}

// nPar returns the current parameter count.
func (s *space) nPar() int { return len(s.syms) }

// kAffine is an affine expression over the trip-counter variables k_0..k_{n-1}
// of one access's loop nest plus the shared symbols: KCoef·k + SymCoef·syms + Const.
type kAffine struct {
	K     []int64
	Sym   map[int]int64 // symbol index → coefficient
	Const int64
}

func newKAffine(nk int) kAffine {
	return kAffine{K: make([]int64, nk), Sym: map[int]int64{}}
}

func (a kAffine) clone() kAffine {
	b := newKAffine(len(a.K))
	copy(b.K, a.K)
	for k, v := range a.Sym {
		b.Sym[k] = v
	}
	b.Const = a.Const
	return b
}

func (a kAffine) add(b kAffine) kAffine {
	c := a.clone()
	for i := range b.K {
		c.K[i] += b.K[i]
	}
	for k, v := range b.Sym {
		c.Sym[k] += v
	}
	c.Const += b.Const
	return c
}

func (a kAffine) scale(k int64) kAffine {
	c := a.clone()
	for i := range c.K {
		c.K[i] *= k
	}
	for s, v := range c.Sym {
		c.Sym[s] = v * k
	}
	c.Const *= k
	return c
}

// vec renders the expression as a constraint-style vector over
// (k_0..k_{nk-1}, syms..., 1).
func (a kAffine) vec(nk, npar int) []int64 {
	v := make([]int64, nk+npar+1)
	copy(v, a.K)
	for s, c := range a.Sym {
		v[nk+s] = c
	}
	v[len(v)-1] = a.Const
	return v
}

// substitution rewrites IV references into trip-counter space.
type substitution struct {
	sp *space
	// ivExpr maps each IV phi to its expression over trip counters.
	ivExpr map[*ir.Phi]kAffine
	nk     int
}

// substAffine converts a scev.Affine into trip-counter space. It fails if
// the expression references an IV outside the substitution (an inner loop's
// IV seen from outside, which cannot happen for well-formed accesses).
func (s *substitution) substAffine(a scev.Affine) (kAffine, error) {
	out := newKAffine(s.nk)
	out.Const = a.Const
	// Intern symbols in name order, not map order: a symbol's index is its
	// column, and paramExprIR emits the access code column by column.
	syms := make([]ir.Value, 0, len(a.Sym))
	for v := range a.Sym {
		syms = append(syms, v)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].Ref() < syms[j].Ref() })
	for _, v := range syms {
		out.Sym[s.sp.symIndex(v)] += a.Sym[v]
	}
	for phi, c := range a.IV {
		e, ok := s.ivExpr[phi]
		if !ok {
			return kAffine{}, fmt.Errorf("dae: reference to IV %s outside its nest", phi.Ref())
		}
		out = out.add(e.scale(c))
	}
	return out, nil
}

// nestDomain builds, for a loop nest (outermost→innermost IVs), the
// iteration domain polytope over trip counters k_i ≥ 0 and the substitution
// from IV values to trip-counter expressions:
//
//	iv_i = lower_i + step_i · k_i
//
// with the loop-continuation condition translated into a constraint.
func nestDomain(ivs []*scev.IVInfo, sp *space) (*poly.Polyhedron, *substitution, error) {
	nk := len(ivs)
	sub := &substitution{sp: sp, ivExpr: make(map[*ir.Phi]kAffine), nk: nk}

	type pending struct {
		ivVec kAffine
		bound kAffine
		pred  ir.CmpPred
		step  int64
	}
	var rows []pending

	for i, iv := range ivs {
		lower, err := sub.substAffine(iv.Lower)
		if err != nil {
			return nil, nil, err
		}
		// iv = lower + step·k_i
		e := lower.clone()
		e.K[i] += iv.Step
		sub.ivExpr[iv.Phi] = e

		bound, err := sub.substAffine(iv.Bound)
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, pending{ivVec: e, bound: bound, pred: iv.Pred, step: iv.Step})
	}

	dom := poly.NewPolyhedron(nk, sp.nPar())
	for i, r := range rows {
		// k_i >= 0
		k0 := newKAffine(nk)
		k0.K[i] = 1
		dom.AddConstraint(k0.vec(nk, sp.nPar()))

		// Continuation condition "iv pred bound" holds for every executed
		// iteration.
		pred := r.pred
		if pred == ir.NE {
			// With a constant step of ±1 the NE condition behaves like a
			// strict inequality in the step direction.
			if r.step > 0 {
				pred = ir.LT
			} else {
				pred = ir.GT
			}
		}
		var con kAffine
		switch pred {
		case ir.LT: // bound - iv - 1 >= 0
			con = r.bound.add(r.ivVec.scale(-1))
			con.Const--
		case ir.LE: // bound - iv >= 0
			con = r.bound.add(r.ivVec.scale(-1))
		case ir.GT: // iv - bound - 1 >= 0
			con = r.ivVec.add(r.bound.scale(-1))
			con.Const--
		case ir.GE: // iv - bound >= 0
			con = r.ivVec.add(r.bound.scale(-1))
		default:
			return nil, nil, fmt.Errorf("dae: unsupported loop predicate %s", r.pred)
		}
		dom.AddConstraint(con.vec(nk, sp.nPar()))
	}
	return dom, sub, nil
}

// importer rebuilds loop-invariant values of the original task inside the
// generated access function (parameters map one-to-one; entry-block
// computations are cloned on demand).
type importer struct {
	src  *ir.Func
	dst  *ir.Func
	bd   *ir.Builder
	memo map[ir.Value]ir.Value
}

func newImporter(src, dst *ir.Func, bd *ir.Builder) *importer {
	im := &importer{src: src, dst: dst, bd: bd, memo: make(map[ir.Value]ir.Value)}
	for i, p := range src.Params {
		im.memo[p] = dst.Params[i]
	}
	return im
}

// value imports v, cloning pure entry-block computations as needed.
func (im *importer) value(v ir.Value) (ir.Value, error) {
	if got, ok := im.memo[v]; ok {
		return got, nil
	}
	switch x := v.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.ConstBool:
		return v, nil
	case *ir.Bin:
		a, err := im.value(x.X)
		if err != nil {
			return nil, err
		}
		b, err := im.value(x.Y)
		if err != nil {
			return nil, err
		}
		nv := im.bd.Bin(x.Op, a, b)
		im.memo[v] = nv
		return nv, nil
	case *ir.Cast:
		a, err := im.value(x.X)
		if err != nil {
			return nil, err
		}
		nv := im.bd.Cast(x.Op, a)
		im.memo[v] = nv
		return nv, nil
	case *ir.Select:
		c, err := im.value(x.Cond)
		if err != nil {
			return nil, err
		}
		a, err := im.value(x.X)
		if err != nil {
			return nil, err
		}
		b, err := im.value(x.Y)
		if err != nil {
			return nil, err
		}
		nv := im.bd.Select(c, a, b)
		im.memo[v] = nv
		return nv, nil
	case *ir.Cmp:
		a, err := im.value(x.X)
		if err != nil {
			return nil, err
		}
		b, err := im.value(x.Y)
		if err != nil {
			return nil, err
		}
		nv := im.bd.Cmp(x.Pred, a, b)
		im.memo[v] = nv
		return nv, nil
	}
	return nil, fmt.Errorf("dae: cannot import value %s into access version", v.Ref())
}
