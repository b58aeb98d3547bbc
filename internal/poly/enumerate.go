package poly

import "encoding/binary"

// Enumerate visits every integer point of the polyhedron at the given
// parameter values, in lexicographic order. The yield function receives a
// reused buffer; copy it to retain. Enumeration precomputes the chain of
// projections so that each level's bounds are evaluated from the outer
// coordinates (the classic polyhedron-scanning recursion).
func (p *Polyhedron) Enumerate(params []int64, yield func(pt []int64)) {
	if p.NVar == 0 {
		if p.Feasible(params) {
			yield(nil)
		}
		return
	}
	// proj[i] has variables 0..i (vars i+1.. eliminated).
	proj := make([]*Polyhedron, p.NVar)
	proj[p.NVar-1] = p.Clone()
	for i := p.NVar - 1; i > 0; i-- {
		proj[i-1] = proj[i].EliminateVar(i)
	}
	pt := make([]int64, p.NVar)
	var scan func(level int)
	scan = func(level int) {
		lo, hi, ok := levelBounds(proj[level], level, pt, params)
		if !ok {
			return
		}
		for v := lo; v <= hi; v++ {
			pt[level] = v
			if level == p.NVar-1 {
				yield(pt)
			} else {
				scan(level + 1)
			}
		}
	}
	scan(0)
}

// levelBounds computes the inclusive range of variable `level` in q (which
// has variables 0..level), given outer coordinates pt[0..level-1].
func levelBounds(q *Polyhedron, level int, pt, params []int64) (int64, int64, bool) {
	var lo, hi int64
	haveLo, haveHi := false, false
	for _, c := range q.Cons {
		a := c.V[level]
		// rest = Σ_{i<level} c_i·pt_i + Σ_j cp_j·params_j + const
		rest := c.V[len(c.V)-1]
		for i := 0; i < level; i++ {
			rest += c.V[i] * pt[i]
		}
		for j := 0; j < q.NPar; j++ {
			rest += c.V[q.NVar+j] * params[j]
		}
		switch {
		case a > 0:
			v := ceilDiv(-rest, a)
			if !haveLo || v > lo {
				lo, haveLo = v, true
			}
		case a < 0:
			v := floorDiv(rest, -a)
			if !haveHi || v < hi {
				hi, haveHi = v, true
			}
		default:
			if rest < 0 {
				return 0, 0, false // infeasible at these outer coordinates
			}
		}
	}
	if !haveLo || !haveHi {
		// Unbounded variables cannot be enumerated; treat as empty (the DAE
		// pass never builds unbounded loop domains).
		return 0, 0, false
	}
	if lo > hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// CountPoints returns the number of integer points at the given parameter
// values (the role Ehrhart counting plays in the paper, evaluated at an
// instantiated parameter vector).
func (p *Polyhedron) CountPoints(params []int64) int64 {
	var n int64
	p.Enumerate(params, func([]int64) { n++ })
	return n
}

// AffineMap maps iteration points to index-space points: each output
// coordinate is Rows[d] · (vars..., params..., 1).
type AffineMap struct {
	NVar int
	NPar int
	Rows [][]int64
}

// appendImage appends the image of one iteration point to key, each
// coordinate as 8 little-endian bytes.
func (m *AffineMap) appendImage(key []byte, pt, params []int64) []byte {
	for _, row := range m.Rows {
		s := row[len(row)-1]
		for i := 0; i < m.NVar; i++ {
			s += row[i] * pt[i]
		}
		for j := 0; j < m.NPar; j++ {
			s += row[m.NVar+j] * params[j]
		}
		key = binary.LittleEndian.AppendUint64(key, uint64(s))
	}
	return key
}

// CountDistinctImages counts the distinct image points of several
// (domain, map) pairs at the given parameters — NOrig of §5.1.2: the number
// of unique memory locations touched by the original accesses. Each image
// is keyed in one reused buffer; a key string is allocated only when a new
// cell enters the set (the lookup through string(key) does not allocate).
func CountDistinctImages(doms []*Polyhedron, maps []*AffineMap, params []int64) int64 {
	seen := make(map[string]struct{})
	var key []byte
	for i, dom := range doms {
		m := maps[i]
		dom.Enumerate(params, func(pt []int64) {
			key = m.appendImage(key[:0], pt, params)
			if _, ok := seen[string(key)]; !ok {
				seen[string(key)] = struct{}{}
			}
		})
	}
	return int64(len(seen))
}
