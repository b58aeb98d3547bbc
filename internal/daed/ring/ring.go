// Package ring implements the seeded consistent-hash ring that maps daed
// content keys onto cluster nodes. Every node is projected onto the ring at
// VirtualNodes seeded positions; a key hashes to a point on the ring and is
// owned by the next VirtualNode clockwise, with the following distinct nodes
// as its replicas. Because both projections are pure functions of (seed,
// node name) and (key), every member of the cluster — and every client —
// derives the same ownership without coordination, and a test can predict
// placements exactly.
//
// The ring is immutable once built: membership changes build a new Ring.
// Consistent hashing keeps that cheap in the only sense that matters here —
// removing one node reassigns only the keys it owned, so a cluster that
// loses a member keeps ~(n-1)/n of its artifact placement intact.
package ring

import (
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-node virtual-node count when New is given
// none. 64 points per node keeps the expected ownership imbalance of a small
// cluster within a few percent while the ring stays tiny (3 nodes = 192
// points).
const DefaultVirtualNodes = 64

// DefaultSeed is the ring seed the daed cluster (and its clients) use when
// none is configured. It is part of the cluster's identity: every member
// and every client must project nodes with the same seed, or they derive
// different rings from the same membership.
const DefaultSeed = 0xdae

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over a set of named nodes.
type Ring struct {
	nodes  []string
	points []point // sorted by hash
}

// hash64 hashes the parts with FNV-1a, separated so ("ab","c") and
// ("a","bc") land differently, then applies MurmurHash3's 64-bit finalizer.
// FNV-1a alone reaches the high bits from the last bytes through a single
// multiply, so keys differing only in a suffix ("...-00", "...-01") landed
// in one narrow arc and all got the same owners.
func hash64(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// New builds a ring over nodes with vnodes virtual nodes per member (<= 0
// selects DefaultVirtualNodes), seeded by seed. Node order does not matter:
// two rings built from permutations of the same membership are identical.
// Duplicate names collapse to one member; an empty membership yields a ring
// whose lookups return nil.
func New(nodes []string, vnodes int, seed uint64) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	// Canonical member order: the ring must not depend on argument order.
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]point, 0, len(uniq)*vnodes)}
	var seedBuf [8]byte
	for i := range seedBuf {
		seedBuf[i] = byte(seed >> (8 * i))
	}
	for ni, name := range uniq {
		for v := 0; v < vnodes; v++ {
			// Mix the seed and the vnode index into the projection.
			var vb [4]byte
			vb[0], vb[1], vb[2], vb[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h := hash64(string(seedBuf[:]), name, string(vb[:]))
			r.points = append(r.points, point{hash: h, node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Members returns the ring's node names in canonical (sorted) order.
func (r *Ring) Members() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len reports the number of distinct members.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns up to n distinct nodes for key in preference order: the
// primary (the first virtual node at or after the key's point) followed by
// the replicas (the next virtual nodes clockwise belonging to nodes not yet
// chosen). n <= 0 or n > Len() returns every member, still in ring order.
func (r *Ring) Nodes(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	kh := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if taken[p.node] {
			continue
		}
		taken[p.node] = true
		out = append(out, r.nodes[p.node])
	}
	return out
}

// Primary returns the key's owner ("" on an empty ring).
func (r *Ring) Primary(key string) string {
	ns := r.Nodes(key, 1)
	if len(ns) == 0 {
		return ""
	}
	return ns[0]
}

// Owns reports whether node is among the first replicas nodes for key — the
// set that stores the key's artifact.
func (r *Ring) Owns(key, node string, replicas int) bool {
	for _, n := range r.Nodes(key, replicas) {
		if n == node {
			return true
		}
	}
	return false
}

// Fractions returns each member's share of the key space as the fraction of
// ring arc whose primary it is. Virtual node p_i owns the arc (p_{i-1}, p_i]
// counter-clockwise behind it (the first point also owns the wraparound arc
// past the last point), so the fractions sum to 1 on any non-empty ring.
func (r *Ring) Fractions() map[string]float64 {
	if len(r.points) == 0 {
		return map[string]float64{}
	}
	out := make(map[string]float64, len(r.nodes))
	if len(r.nodes) == 1 {
		// Summing its arcs in float64 can round past 1.
		out[r.nodes[0]] = 1
		return out
	}
	// Accumulate in float64: individual arcs fit a uint64 but their total is
	// exactly 2^64, which does not.
	prev := r.points[len(r.points)-1].hash // wraparound: arc from last point to first
	for _, p := range r.points {
		arc := p.hash - prev // uint64 wraparound is the arc length
		out[r.nodes[p.node]] += float64(arc) / (1 << 63) / 2
		prev = p.hash
	}
	return out
}

// View is a Ring stamped with the membership epoch it was built from. Views
// are immutable; a membership change builds a new View at a higher epoch.
// Request handlers capture one View at entry so an in-flight request keeps
// computing ownership against the epoch it started with even if the cluster
// changes shape underneath it.
type View struct {
	Epoch uint64
	*Ring
}

// At builds the View for (epoch, members) with the given projection
// parameters. Two nodes that agree on (epoch, members, vnodes, seed) derive
// identical views without coordination.
func At(epoch uint64, members []string, vnodes int, seed uint64) *View {
	return &View{Epoch: epoch, Ring: New(members, vnodes, seed)}
}
