// Package mem simulates the memory hierarchy of the evaluation machine
// (a quad-core Intel Sandybridge in the paper): per-core L1 and L2 caches, a
// shared L3, and DRAM. The interpreter's memory events are fed through a
// per-core Hierarchy, or, for a phase several runs share, through a Group
// of their hierarchies; the hit-level statistics drive the interval timing
// model in internal/cpu. The simulator is deterministic.
package mem

// Level identifies where an access was satisfied.
type Level uint8

// Hit levels.
const (
	L1 Level = iota
	L2
	L3
	Mem
	NumLevels
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	}
	return "Mem"
}

// Config describes one cache.
type Config struct {
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the cache line size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
}

// Cache is a set-associative cache with LRU replacement. Tags are line
// addresses; the cache stores no data (the interpreter holds the real
// values).
//
// Storage is one flat tag array (nsets x assoc, each set MRU-first, empty
// ways holding an invalid tag) so a probe touches a single contiguous run of
// memory, and the MRU way is checked first: the interpreter's spatial
// locality makes "same line as last time" the dominant outcome, and that
// case costs one compare. Hit/miss outcomes and replacement order are
// identical to the per-set slice implementation this replaces.
type Cache struct {
	cfg   Config
	tags  []int64 // nsets*assoc line addresses, MRU first within each set
	nsets int64
	assoc int
	shift uint
}

// invalidTag marks an empty way. Heap addresses start at 1<<20 (the heap
// never hands out address zero or below), so no real line address is
// negative.
const invalidTag = -1

// NewCache returns an empty cache. Sizes must make a power-of-two set count.
func NewCache(cfg Config) *Cache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("mem: set count must be a positive power of two")
	}
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	c := &Cache{cfg: cfg, nsets: int64(nsets), assoc: cfg.Assoc, shift: shift}
	c.tags = make([]int64, nsets*cfg.Assoc)
	c.Flush()
	return c
}

// line maps a byte address to its line address.
func (c *Cache) line(addr int64) int64 { return addr >> c.shift }

// Lookup probes the cache and updates LRU and fills on miss. It reports
// whether the access hit.
func (c *Cache) Lookup(addr int64) bool {
	ln := addr >> c.shift
	base := int(ln&(c.nsets-1)) * c.assoc
	set := c.tags[base : base+c.assoc]
	if set[0] == ln {
		// MRU fast path: no reordering needed.
		return true
	}
	return c.lookupSlow(set, ln)
}

// lookupSlow scans the non-MRU ways, shifting each way it passes down one,
// so that a hit ends up promoted to MRU and a miss (dropping the LRU or an
// empty way) fills the line as MRU, in one pass over the set.
func (c *Cache) lookupSlow(set []int64, ln int64) bool {
	prev := set[0]
	for i := 1; i < len(set); i++ {
		cur := set[i]
		set[i] = prev
		if cur == ln {
			set[0] = ln
			return true
		}
		prev = cur
	}
	set[0] = ln
	return false
}

// Contains probes without side effects.
func (c *Cache) Contains(addr int64) bool {
	ln := c.line(addr)
	base := int(ln&(c.nsets-1)) * c.assoc
	for _, tag := range c.tags[base : base+c.assoc] {
		if tag == ln {
			return true
		}
	}
	return false
}

// Flush empties the cache.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
}

// HierarchyConfig describes the full memory system.
type HierarchyConfig struct {
	L1 Config
	L2 Config
	L3 Config
}

// DefaultHierarchy mirrors the evaluation machine: 32 KiB 8-way L1,
// 256 KiB 8-way L2 (per core), 8 MiB 16-way shared L3, 64-byte lines.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8},
		L2: Config{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 8},
		L3: Config{SizeBytes: 8 << 20, LineBytes: 64, Assoc: 16},
	}
}

// EvalHierarchy is the downscaled machine used for the paper reproduction
// runs: capacities are divided by ~32-64 relative to the Sandybridge so that
// benchmark working sets scaled to interpreter-friendly sizes keep the same
// relationship to the caches (task working set just fits the private levels,
// §3.1; application footprint exceeds the LLC). Latency constants live in
// internal/cpu and are unchanged.
func EvalHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1: Config{SizeBytes: 16 << 10, LineBytes: 64, Assoc: 8},
		L2: Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 8},
		L3: Config{SizeBytes: 128 << 10, LineBytes: 64, Assoc: 16},
	}
}

// AccessKind distinguishes the event types fed to the hierarchy.
type AccessKind uint8

// Access kinds.
const (
	Load AccessKind = iota
	Store
	Prefetch
	NumKinds
)

// Stats counts accesses by kind and service level.
type Stats struct {
	At [NumKinds][NumLevels]int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	for k := range s.At {
		for l := range s.At[k] {
			s.At[k][l] += other.At[k][l]
		}
	}
}

// Total returns the number of accesses of kind k.
func (s *Stats) Total(k AccessKind) int64 {
	var n int64
	for _, v := range s.At[k] {
		n += v
	}
	return n
}

// MissesBeyond returns accesses of kind k serviced at or beyond level l.
func (s *Stats) MissesBeyond(k AccessKind, l Level) int64 {
	var n int64
	for lv := l; lv < NumLevels; lv++ {
		n += s.At[k][lv]
	}
	return n
}

// Hierarchy is one core's view of the memory system: private L1/L2 and a
// shared L3. It implements the access accounting for the interval model.
type Hierarchy struct {
	L1c *Cache
	L2c *Cache
	L3c *Cache // shared; aliased across cores

	Stats Stats
}

// NewHierarchy builds a core-private hierarchy around a shared L3.
func NewHierarchy(cfg HierarchyConfig, sharedL3 *Cache) *Hierarchy {
	return &Hierarchy{
		L1c: NewCache(cfg.L1),
		L2c: NewCache(cfg.L2),
		L3c: sharedL3,
	}
}

// Access services one memory event and returns the level that satisfied it.
// All kinds (including prefetches) fill every level on their way in,
// modelling allocate-on-miss with inclusive fills.
//
// The L1 MRU-way probe is open-coded here: the interpreter's spatial
// locality makes "L1 hit in the most-recent way" the dominant outcome, and
// inlining it saves the nested Lookup call on the simulator's hottest path.
// Accounting is identical to routing through Cache.Lookup.
func (h *Hierarchy) Access(addr int64, kind AccessKind) Level {
	l1 := h.L1c
	ln := addr >> l1.shift
	base := int(ln&(l1.nsets-1)) * l1.assoc
	if l1.tags[base] == ln {
		h.Stats.At[kind][L1]++
		return L1
	}
	return h.accessSlow(addr, kind, ln, base)
}

// AccessHit services a memory event only if it hits the L1 MRU way — the
// dominant outcome under the interpreter's spatial locality — and reports
// whether it did. On a miss it has no effect; the caller must fall back to
// Access. The split exists for the bytecode dispatch loop: AccessHit is
// small enough to inline there, so the common case costs no call, while the
// general Access (whose accessSlow call keeps it over the inlining budget)
// only runs on the miss path. Accounting across the pair is identical to
// calling Access alone.
func (h *Hierarchy) AccessHit(addr int64, kind AccessKind) bool {
	l1 := h.L1c
	ln := addr >> l1.shift
	if base := int(ln&(l1.nsets-1)) * l1.assoc; l1.tags[base] == ln {
		h.Stats.At[kind][L1]++
		return true
	}
	return false
}

// accessSlow finishes an access that missed the L1 MRU way: the rest of the
// L1 set, then L2, then the shared L3, with allocate-on-miss fills.
func (h *Hierarchy) accessSlow(addr int64, kind AccessKind, ln int64, base int) Level {
	l1 := h.L1c
	level := Mem
	switch {
	case l1.lookupSlow(l1.tags[base:base+l1.assoc], ln):
		level = L1
	case h.L2c.Lookup(addr):
		level = L2
	case h.L3c.Lookup(addr):
		level = L3
	}
	h.Stats.At[kind][level]++
	return level
}

// ResetStats clears the statistics (used between task phases) without
// touching cache contents.
func (h *Hierarchy) ResetStats() { h.Stats = Stats{} }

// FlushAll empties the private levels and the shared L3.
func (h *Hierarchy) FlushAll() {
	h.L1c.Flush()
	h.L2c.Flush()
	h.L3c.Flush()
}
