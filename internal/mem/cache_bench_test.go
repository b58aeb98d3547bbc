package mem

import (
	"math/rand"
	"testing"
)

// BenchmarkHierarchyAccessSequential walks lines in order, the
// spatially-local pattern the interpreter's kernels produce: within a line
// every access after the first is an L1 MRU-way hit, the case AccessHit and
// the open-coded probe in Access are built around.
func BenchmarkHierarchyAccessSequential(b *testing.B) {
	cfg := EvalHierarchy()
	h := NewHierarchy(cfg, NewCache(cfg.L3))
	b.ResetTimer()
	addr := int64(1 << 20)
	for i := 0; i < b.N; i++ {
		h.Access(addr, Load)
		addr += 8
	}
}

// BenchmarkHierarchyAccessStrided jumps a cache line per access, defeating
// the MRU fast path so the set-scan, fill, and L2/L3 promotion paths (the
// accessSlow side) dominate.
func BenchmarkHierarchyAccessStrided(b *testing.B) {
	cfg := EvalHierarchy()
	h := NewHierarchy(cfg, NewCache(cfg.L3))
	b.ResetTimer()
	addr := int64(1 << 20)
	for i := 0; i < b.N; i++ {
		h.Access(addr, Load)
		addr += int64(cfg.L1.LineBytes)
	}
}

// BenchmarkHierarchyAccessHit measures the inlinable fast-path probe alone
// on a guaranteed MRU hit.
func BenchmarkHierarchyAccessHit(b *testing.B) {
	cfg := EvalHierarchy()
	h := NewHierarchy(cfg, NewCache(cfg.L3))
	h.Access(1<<20, Load)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessHit(1<<20, Load)
	}
}

// BenchmarkGroupAccess feeds one seeded stream to three hierarchies whose
// caches start out different, as an app's coupled, manual-DAE and
// compiler-DAE runs meet a shared execute phase: arm "group" through a
// Group, in phases of 4096 events, and arm "members" through each member's
// AccessHit and Access in turn, as the VM's fused probe would. An op is one
// event served to all three members. Both arms start from the same warmed
// members.
func BenchmarkGroupAccess(b *testing.B) {
	cfg := EvalHierarchy()
	hot, span := int64(2*cfg.L1.SizeBytes), int64(4*cfg.L3.SizeBytes)
	evs := seededStream(rand.New(rand.NewSource(1)), 1<<16, hot, span)
	members := func() []*Hierarchy {
		rng := rand.New(rand.NewSource(2))
		hs := make([]*Hierarchy, 3)
		for m := range hs {
			hs[m] = NewHierarchy(cfg, NewCache(cfg.L3))
			for _, ev := range seededStream(rng, 4096, hot, span) {
				hs[m].Access(ev.addr, ev.kind)
			}
		}
		return hs
	}
	const phase = 4096
	b.Run("group", func(b *testing.B) {
		hs := members()
		var g Group
		g.Begin(hs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%phase == phase-1 {
				g.End()
				g.Begin(hs)
			}
			ev := evs[i%len(evs)]
			g.Access(ev.addr, ev.kind)
		}
		g.End()
	})
	b.Run("members", func(b *testing.B) {
		hs := members()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := evs[i%len(evs)]
			for _, h := range hs {
				if !h.AccessHit(ev.addr, ev.kind) {
					h.Access(ev.addr, ev.kind)
				}
			}
		}
	})
}
