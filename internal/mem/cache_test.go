package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCache() *Cache {
	return NewCache(Config{SizeBytes: 1024, LineBytes: 64, Assoc: 2}) // 8 sets
}

func TestCacheHitAfterFill(t *testing.T) {
	c := smallCache()
	hits, misses := 0, 0
	lookup := func(addr int64) bool {
		hit := c.Lookup(addr)
		if hit {
			hits++
		} else {
			misses++
		}
		return hit
	}
	if lookup(0) {
		t.Error("cold access should miss")
	}
	if !lookup(0) {
		t.Error("second access should hit")
	}
	if !lookup(63) {
		t.Error("same line should hit")
	}
	if lookup(64) {
		t.Error("next line should miss")
	}
	if hits != 2 || misses != 2 {
		t.Errorf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := smallCache() // 8 sets, 2-way: lines mapping to set 0 are multiples of 8*64=512
	a, b, d := int64(0), int64(512), int64(1024)
	c.Lookup(a)
	c.Lookup(b)
	c.Lookup(a) // a MRU
	c.Lookup(d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive (MRU)")
	}
	if c.Contains(b) {
		t.Error("b should be evicted (LRU)")
	}
	if !c.Contains(d) {
		t.Error("d should be present")
	}
}

func TestCacheWorkingSetFits(t *testing.T) {
	c := NewCache(Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 8})
	// Touch 16 KiB twice: second pass must be all hits.
	misses := 0
	for addr := int64(0); addr < 16<<10; addr += 8 {
		if !c.Lookup(addr) {
			misses++
		}
	}
	if misses != 16<<10/64 {
		t.Errorf("first pass missed %d times, want one miss per line (%d)", misses, 16<<10/64)
	}
	hits := 0
	for addr := int64(0); addr < 16<<10; addr += 8 {
		if !c.Lookup(addr) {
			t.Fatalf("second pass miss at %d", addr)
		}
		hits++
	}
	if hits != 16<<10/8 {
		t.Errorf("second pass hit %d times, want %d", hits, 16<<10/8)
	}
}

func TestCacheStreamingEvicts(t *testing.T) {
	c := NewCache(Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 2})
	// Stream 64 KiB; then the first line must be gone.
	for addr := int64(0); addr < 64<<10; addr += 64 {
		c.Lookup(addr)
	}
	if c.Contains(0) {
		t.Error("first line should have been evicted by streaming")
	}
}

func TestHierarchyLevels(t *testing.T) {
	cfg := DefaultHierarchy()
	l3 := NewCache(cfg.L3)
	h := NewHierarchy(cfg, l3)

	if lv := h.Access(4096, Load); lv != Mem {
		t.Errorf("cold load level = %s, want Mem", lv)
	}
	if lv := h.Access(4096, Load); lv != L1 {
		t.Errorf("warm load level = %s, want L1", lv)
	}
	if h.Stats.At[Load][Mem] != 1 || h.Stats.At[Load][L1] != 1 {
		t.Errorf("stats = %+v", h.Stats.At[Load])
	}
}

func TestHierarchyPrefetchWarmsForLoads(t *testing.T) {
	cfg := DefaultHierarchy()
	l3 := NewCache(cfg.L3)
	h := NewHierarchy(cfg, l3)
	for addr := int64(0); addr < 4096; addr += 8 {
		h.Access(addr, Prefetch)
	}
	// Every subsequent load hits L1.
	for addr := int64(0); addr < 4096; addr += 8 {
		if lv := h.Access(addr, Load); lv != L1 {
			t.Fatalf("load after prefetch at %d hit %s, want L1", addr, lv)
		}
	}
}

func TestSharedL3AcrossCores(t *testing.T) {
	cfg := DefaultHierarchy()
	l3 := NewCache(cfg.L3)
	c0 := NewHierarchy(cfg, l3)
	c1 := NewHierarchy(cfg, l3)
	c0.Access(8192, Load) // miss to Mem, fills shared L3
	if lv := c1.Access(8192, Load); lv != L3 {
		t.Errorf("cross-core access level = %s, want L3 (shared)", lv)
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	s.At[Load][L1] = 10
	s.At[Load][L2] = 5
	s.At[Load][Mem] = 2
	if s.Total(Load) != 17 {
		t.Error("Total")
	}
	if s.MissesBeyond(Load, L2) != 7 {
		t.Error("MissesBeyond")
	}
	var s2 Stats
	s2.At[Load][L1] = 1
	s.Add(s2)
	if s.At[Load][L1] != 11 {
		t.Error("Add")
	}
}

func TestFlushAndReset(t *testing.T) {
	cfg := DefaultHierarchy()
	l3 := NewCache(cfg.L3)
	h := NewHierarchy(cfg, l3)
	h.Access(0, Load)
	h.ResetStats()
	if h.Stats.Total(Load) != 0 {
		t.Error("ResetStats should clear counters")
	}
	if lv := h.Access(0, Load); lv != L1 {
		t.Error("cache contents should survive ResetStats")
	}
	h.FlushAll()
	if lv := h.Access(0, Load); lv == L1 {
		t.Error("FlushAll should empty caches")
	}
}

// Property: Lookup agrees with the naive reference model of an LRU cache.
func TestCacheMatchesReferenceModel(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := Config{SizeBytes: 512, LineBytes: 64, Assoc: 2} // 4 sets
		c, r := NewCache(cfg), newRefCache(cfg)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 500; op++ {
			addr := int64(rng.Intn(64)) * 64
			if c.Lookup(addr) != r.lookup(addr) {
				return false
			}
		}
		return r.equal(c)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
