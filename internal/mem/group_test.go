package mem

import (
	"math/rand"
	"slices"
	"testing"
)

// groupGeometries are the hierarchies the Group differential runs at: the
// evaluation machine, and a tiny one (2-way, 4-set L1) whose sets overflow
// within a few events.
var groupGeometries = []struct {
	name string
	cfg  HierarchyConfig
}{
	{"eval", EvalHierarchy()},
	{"2way4set", HierarchyConfig{
		L1: Config{SizeBytes: 512, LineBytes: 64, Assoc: 2},
		L2: Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4},
		L3: Config{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 4},
	}},
}

// groupLevel is the level at which the last Group.Access served member h,
// whose Stats were before and the Group's shared hits pending before it.
func groupLevel(g *Group, h *Hierarchy, kind AccessKind, before Stats, pending [NumKinds]int64) Level {
	if g.pending != pending {
		return L1
	}
	for lv := L1; lv < NumLevels; lv++ {
		if h.Stats.At[kind][lv] != before.At[kind][lv] {
			return lv
		}
	}
	return NumLevels
}

// TestGroupMatchesMembers is the contract of Group: a stream fed through a
// Group gives every member the levels, Stats and L1, L2 and L3 contents
// that feeding each event to each member's own Access in turn gives. Groups
// of 2 and 3 members, each with its own L3, alternate private phases (each
// member's own seeded stream, of random length, sometimes after an L1
// flush, so sets are part-empty) with shared phases cut short at a random
// event, as a faulted phase is.
func TestGroupMatchesMembers(t *testing.T) {
	for _, geo := range groupGeometries {
		cfg := geo.cfg
		hot, span := int64(2*cfg.L1.SizeBytes), int64(4*cfg.L3.SizeBytes)
		lines := cfg.L1.SizeBytes / cfg.L1.LineBytes
		for _, n := range []int{2, 3} {
			for seed := int64(1); seed <= 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var grouped, alone []*Hierarchy
				for range n {
					grouped = append(grouped, NewHierarchy(cfg, NewCache(cfg.L3)))
					alone = append(alone, NewHierarchy(cfg, NewCache(cfg.L3)))
				}
				var g Group
				for phase := 0; phase < 6; phase++ {
					for m := range n {
						if rng.Intn(4) == 0 {
							grouped[m].L1c.Flush()
							alone[m].L1c.Flush()
						}
						for _, ev := range seededStream(rng, rng.Intn(3*lines), hot, span) {
							grouped[m].Access(ev.addr, ev.kind)
							alone[m].Access(ev.addr, ev.kind)
						}
					}
					evs := seededStream(rng, 8*lines, hot, span)
					evs = evs[:rng.Intn(len(evs)+1)]
					g.Begin(grouped)
					for i, ev := range evs {
						before := make([]Stats, n)
						for m, h := range grouped {
							before[m] = h.Stats
						}
						pending := g.pending
						g.Access(ev.addr, ev.kind)
						for m, h := range alone {
							want := h.Access(ev.addr, ev.kind)
							if got := groupLevel(&g, grouped[m], ev.kind, before[m], pending); got != want {
								t.Fatalf("%s n=%d seed %d phase %d event %d (%#x, kind %d): member %d level %s, alone %s",
									geo.name, n, seed, phase, i, ev.addr, ev.kind, m, got, want)
							}
						}
					}
					g.End()
					for m, h := range grouped {
						a := alone[m]
						if h.Stats != a.Stats {
							t.Fatalf("%s n=%d seed %d phase %d member %d: stats %+v, alone %+v", geo.name, n, seed, phase, m, h.Stats, a.Stats)
						}
						for _, c := range [][2]*Cache{{h.L1c, a.L1c}, {h.L2c, a.L2c}, {h.L3c, a.L3c}} {
							if !slices.Equal(c[0].tags, c[1].tags) {
								t.Fatalf("%s n=%d seed %d phase %d member %d: cache contents differ from the member's alone", geo.name, n, seed, phase, m)
							}
						}
					}
				}
			}
		}
	}
}

// TestGroupRejectsMixedGeometries checks that Begin refuses members whose
// L1s are laid out differently: one stack cannot describe both.
func TestGroupRejectsMixedGeometries(t *testing.T) {
	a, b := groupGeometries[0].cfg, groupGeometries[1].cfg
	defer func() {
		if recover() == nil {
			t.Error("Begin accepted members with different L1 geometries")
		}
	}()
	var g Group
	g.Begin([]*Hierarchy{NewHierarchy(a, NewCache(a.L3)), NewHierarchy(b, NewCache(b.L3))})
}
