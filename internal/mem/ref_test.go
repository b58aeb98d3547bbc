package mem

import (
	"math/rand"
	"testing"
)

// refCache is the naive reference model of a Cache: one slice per set, most
// recent line first, allocate on miss, least recent line evicted. It maps
// addresses with division and remainder, not the Cache's shift and mask.
type refCache struct {
	sets      [][]int64
	assoc     int
	lineBytes int64
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		sets:      make([][]int64, cfg.SizeBytes/(cfg.LineBytes*cfg.Assoc)),
		assoc:     cfg.Assoc,
		lineBytes: int64(cfg.LineBytes),
	}
}

// lookup probes the line holding addr, making it the most recent line of
// its set, and reports whether it was there.
func (c *refCache) lookup(addr int64) bool {
	ln := addr / c.lineBytes
	si := ln % int64(len(c.sets))
	var rest []int64
	hit := false
	for _, tag := range c.sets[si] {
		if tag == ln {
			hit = true
		} else {
			rest = append(rest, tag)
		}
	}
	if len(rest) == c.assoc {
		rest = rest[:c.assoc-1]
	}
	c.sets[si] = append([]int64{ln}, rest...)
	return hit
}

// equal reports whether got holds the same lines in the same order in every
// set.
func (c *refCache) equal(got *Cache) bool {
	for si, set := range c.sets {
		for way, tag := range got.tags[si*c.assoc : (si+1)*c.assoc] {
			want := int64(invalidTag)
			if way < len(set) {
				want = set[way]
			}
			if tag != want {
				return false
			}
		}
	}
	return true
}

// refHierarchy is the naive reference model of a Hierarchy: an access looks
// in L1, then L2, then L3, filling every level it missed on the way, for
// every kind.
type refHierarchy struct {
	l1, l2, l3 *refCache
	stats      Stats
}

func (h *refHierarchy) access(addr int64, kind AccessKind) Level {
	level := Mem
	switch {
	case h.l1.lookup(addr):
		level = L1
	case h.l2.lookup(addr):
		level = L2
	case h.l3.lookup(addr):
		level = L3
	}
	h.stats.At[kind][level]++
	return level
}

// event is one memory access of a seeded stream.
type event struct {
	addr int64
	kind AccessKind
}

// seededStream returns n events, of every kind, above the heap base. Most
// are a loop's element accesses to one of three arrays a quarter of span
// apart, whose lines share L1 sets and so alternate within them; the loop moves on by
// an 8-byte element every eighth event on average. The rest return to an
// address of the last 64 events, or restart the loop elsewhere: in the
// first hot bytes, or anywhere in span.
func seededStream(rng *rand.Rand, n int, hot, span int64) []event {
	evs := make([]event, n)
	base, a := int64(0), int64(0)
	for i := range evs {
		var off int64
		switch r := rng.Intn(64); {
		case r < 56:
			if rng.Intn(2) == 0 {
				a = rng.Int63n(3)
			}
			if rng.Intn(8) == 0 {
				base += 8
			}
			off = (base + a*(span/4)) % span
		case r < 62 && i > 0:
			off = evs[i-1-rng.Intn(min(i, 64))].addr - 1<<20
		case r < 63:
			base = rng.Int63n(hot) &^ 7
			off = base
		default:
			base = rng.Int63n(span) &^ 7
			off = base
		}
		evs[i] = event{addr: 1<<20 + off, kind: AccessKind(rng.Intn(int(NumKinds)))}
	}
	return evs
}

// TestHierarchyMatchesReferenceModel checks Hierarchy.Access against the
// naive model on seeded streams at the evaluation geometry: four cores with
// private L1 and L2 around one shared L3, switching cores every few events,
// with spans reaching past the L3 so every level answers. Levels and Stats
// must agree at every event, and every cache's contents at the end.
func TestHierarchyMatchesReferenceModel(t *testing.T) {
	cfg := EvalHierarchy()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l3, ref3 := NewCache(cfg.L3), newRefCache(cfg.L3)
		var cores []*Hierarchy
		var refs []*refHierarchy
		for range 4 {
			cores = append(cores, NewHierarchy(cfg, l3))
			refs = append(refs, &refHierarchy{l1: newRefCache(cfg.L1), l2: newRefCache(cfg.L2), l3: ref3})
		}
		evs := seededStream(rng, 40000, int64(4*cfg.L1.SizeBytes), int64(4*cfg.L3.SizeBytes))
		core := 0
		for i, ev := range evs {
			if rng.Intn(32) == 0 {
				core = rng.Intn(len(cores))
			}
			got, want := cores[core].Access(ev.addr, ev.kind), refs[core].access(ev.addr, ev.kind)
			if got != want {
				t.Fatalf("seed %d event %d (core %d, %#x, kind %d): level %s, reference %s", seed, i, core, ev.addr, ev.kind, got, want)
			}
		}
		for c, h := range cores {
			if h.Stats != refs[c].stats {
				t.Fatalf("seed %d core %d: stats %+v, reference %+v", seed, c, h.Stats, refs[c].stats)
			}
			if !refs[c].l1.equal(h.L1c) || !refs[c].l2.equal(h.L2c) {
				t.Fatalf("seed %d core %d: private cache contents differ from the reference", seed, c)
			}
		}
		if !ref3.equal(l3) {
			t.Fatalf("seed %d: shared L3 contents differ from the reference", seed)
		}
		for _, lv := range []Level{L1, L2, L3, Mem} {
			n := int64(0)
			for _, h := range cores {
				n += h.Stats.At[Load][lv] + h.Stats.At[Store][lv] + h.Stats.At[Prefetch][lv]
			}
			if n == 0 {
				t.Errorf("seed %d: no access was served at %s; the stream does not exercise every level", seed, lv)
			}
		}
	}
}
