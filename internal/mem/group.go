package mem

// Group simulates one phase that several hierarchies run in lockstep: the
// same stream of memory events, fed to every member, as when one execute
// phase is shared by runs that differ only in the cache state an earlier
// phase left behind. The outcome — every member's levels, Stats and cache
// contents — is the same as feeding each event to each member's Access in
// turn, but most events are settled once for all members.
//
// It rests on LRU stack inclusion (Mattson et al., 1970). During a phase,
// each member's L1 set is the phase's own LRU stack for that set (the lines
// the phase touched, most recent first, at most assoc of them) followed by
// the member's pre-phase lines that the phase has not touched, truncated to
// assoc. So a line in the stack is an L1 hit at the same way in every
// member, and the Group counts it once. A line not in the stack sits in a
// member at the stack depth plus its index among that member's untouched
// lines, and hits iff that position is below assoc; otherwise it is that
// member's L1 miss and goes on to the member's own L2 and L3, in member
// order, as Access would. Once the stack of a set is full the phase has
// pushed every untouched line out of every member, so a stack miss is a
// miss everywhere.
//
// Members' L1 caches are not written until End, which rebuilds each touched
// set from the invariant and adds the shared hits to every member's Stats.
// A Group's zero value is ready to use; Begin sizes it from its members.
type Group struct {
	members []*Hierarchy
	nsets   int64
	assoc   int
	shift   uint
	// stack holds each L1 set's phase-local LRU stack: nsets*assoc lines,
	// MRU first, invalidTag past the set's depth.
	stack []int64
	depth []int
	// touched lists the sets whose depth is above zero.
	touched []int
	// pending counts the stack hits, by kind, that End adds to every
	// member's L1 hits.
	pending [NumKinds]int64
	// untouched is End's scratch for one member's untouched lines.
	untouched []int64
}

// Begin starts a phase shared by members, which must be distinct
// hierarchies with one L1 geometry. The Group keeps the slice until End.
func (g *Group) Begin(members []*Hierarchy) {
	c := members[0].L1c
	if g.nsets != c.nsets || g.assoc != c.assoc || g.shift != c.shift {
		g.nsets, g.assoc, g.shift = c.nsets, c.assoc, c.shift
		g.stack = make([]int64, len(c.tags))
		for i := range g.stack {
			g.stack[i] = invalidTag
		}
		g.depth = make([]int, c.nsets)
		g.untouched = make([]int64, c.assoc)
	}
	for _, h := range members[1:] {
		if h.L1c.nsets != c.nsets || h.L1c.assoc != c.assoc || h.L1c.shift != c.shift {
			panic("mem: group members' L1 geometries differ")
		}
	}
	g.members = members
}

// Access services one memory event for every member. The MRU way of the
// set's stack is checked first, as in Hierarchy.Access: it is the dominant
// outcome, and it is the same hit in every member.
func (g *Group) Access(addr int64, kind AccessKind) {
	if ln := addr >> g.shift; g.stack[int(ln&(g.nsets-1))*g.assoc] == ln {
		g.pending[kind]++
		return
	}
	g.accessSlow(addr, kind)
}

// accessSlow finishes an event that missed the MRU way of its set's stack:
// a deeper stack hit, or a stack miss that each member settles alone. As
// in Cache.lookupSlow, the stack shifts down one way as it is scanned: a
// hit ends up promoted to MRU, and a miss leaves the old stack one way down
// (without its LRU line if it was full) and the MRU way free for the line.
func (g *Group) accessSlow(addr int64, kind AccessKind) {
	ln := addr >> g.shift
	si := int(ln & (g.nsets - 1))
	st := g.stack[si*g.assoc : (si+1)*g.assoc]
	d := g.depth[si]
	prev := st[0]
	for i := 1; i < d; i++ {
		cur := st[i]
		st[i] = prev
		if cur == ln {
			st[0] = ln
			g.pending[kind]++
			return
		}
		prev = cur
	}
	room := d < g.assoc
	if room {
		st[d] = prev
		if d == 0 {
			g.touched = append(g.touched, si)
		}
		g.depth[si] = d + 1
	}
	for _, h := range g.members {
		level := Mem
		switch {
		case room && g.untouchedHit(h, si, st[1:d+1], ln):
			level = L1
		case h.L2c.Lookup(addr):
			level = L2
		case h.L3c.Lookup(addr):
			level = L3
		}
		h.Stats.At[kind][level]++
	}
	st[0] = ln
}

// untouchedHit reports whether ln, a line not in the stack st of set si,
// is still in member h's L1: among h's pre-phase lines that st does not
// hold, it must come before the assoc-len(st) ways the stack leaves free.
func (g *Group) untouchedHit(h *Hierarchy, si int, st []int64, ln int64) bool {
	room := g.assoc - len(st)
	for _, tag := range h.L1c.tags[si*g.assoc : (si+1)*g.assoc] {
		if room == 0 || tag == invalidTag {
			return false
		}
		if tag == ln {
			return true
		}
		if !holds(st, tag) {
			room--
		}
	}
	return false
}

// holds reports whether set holds line ln.
func holds(set []int64, ln int64) bool {
	for _, tag := range set {
		if tag == ln {
			return true
		}
	}
	return false
}

// End closes the phase, however it stopped: every touched set of every
// member becomes the set's stack followed by the member's untouched lines,
// truncated to assoc, and the stack hits are added to every member's L1
// hits. The Group is then empty, ready for the next Begin.
func (g *Group) End() {
	for _, si := range g.touched {
		base := si * g.assoc
		d := g.depth[si]
		st := g.stack[base : base+d]
		for _, h := range g.members {
			set := h.L1c.tags[base : base+g.assoc]
			rest := g.untouched[:0]
			for _, tag := range set {
				if len(rest) == g.assoc-d || tag == invalidTag {
					break
				}
				if !holds(st, tag) {
					rest = append(rest, tag)
				}
			}
			n := copy(set, st)
			n += copy(set[n:], rest)
			for i := n; i < len(set); i++ {
				set[i] = invalidTag
			}
		}
		for i := range st {
			st[i] = invalidTag
		}
		g.depth[si] = 0
	}
	g.touched = g.touched[:0]
	for _, h := range g.members {
		for k, n := range g.pending {
			h.Stats.At[k][L1] += n
		}
	}
	g.pending = [NumKinds]int64{}
	g.members = nil
}
