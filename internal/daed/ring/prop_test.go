package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// propKeys generates a deterministic key population large enough that
// movement fractions are statistically tight.
func propKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sim/v1;app=K%d;cores=%d", i, i%32)
	}
	return keys
}

func members(n int) []string {
	ms := make([]string, n)
	for i := range ms {
		ms[i] = fmt.Sprintf("http://10.0.0.%d:8787", i+1)
	}
	return ms
}

// TestPropMinimalMovementOnJoin checks consistent hashing's defining
// property: adding one node to an N-node ring moves only about 1/(N+1) of
// the keys to a new primary — never a wholesale reshuffle — and the moved
// keys all land on the new node.
func TestPropMinimalMovementOnJoin(t *testing.T) {
	keys := propKeys(4000)
	for _, n := range []int{2, 3, 5, 8} {
		old := New(members(n), 0, DefaultSeed)
		joined := fmt.Sprintf("http://10.0.1.99:%d", 9000+n)
		grown := New(append(members(n), joined), 0, DefaultSeed)
		moved := 0
		for _, k := range keys {
			op, np := old.Primary(k), grown.Primary(k)
			if op != np {
				moved++
				if np != joined {
					t.Fatalf("n=%d key %q moved %s -> %s, not to the joining node", n, k, op, np)
				}
			}
		}
		frac := float64(moved) / float64(len(keys))
		ideal := 1 / float64(n+1)
		// Allow 3x the ideal share: with 64 vnodes per member the realized
		// share of one node has real variance, but a reshuffle would move
		// ~n/(n+1) of the keys and fail this loudly.
		if frac > 3*ideal {
			t.Fatalf("n=%d join moved %.1f%% of keys, want <= %.1f%%", n, frac*100, 3*ideal*100)
		}
		if moved == 0 {
			t.Fatalf("n=%d join moved no keys; the new node owns nothing", n)
		}
	}
}

// TestPropMinimalMovementOnLeave is the mirror bound: removing one node
// re-homes only the keys it owned, and every surviving key keeps its owner.
func TestPropMinimalMovementOnLeave(t *testing.T) {
	keys := propKeys(4000)
	for _, n := range []int{3, 5, 8} {
		ms := members(n)
		full := New(ms, 0, DefaultSeed)
		gone := ms[1]
		shrunk := New(append(append([]string{}, ms[:1]...), ms[2:]...), 0, DefaultSeed)
		moved := 0
		for _, k := range keys {
			op, np := full.Primary(k), shrunk.Primary(k)
			if op != np {
				moved++
				if op != gone {
					t.Fatalf("n=%d key %q moved %s -> %s but %s left", n, k, op, np, gone)
				}
			}
		}
		frac := float64(moved) / float64(len(keys))
		if ideal := 1 / float64(n); frac > 3*ideal {
			t.Fatalf("n=%d leave moved %.1f%% of keys, want <= %.1f%%", n, frac*100, 3*ideal*100)
		}
	}
}

// TestPropReplicaInvariants fuzzes memberships and replica counts under a
// seeded generator: the replica set is never empty on a non-empty ring,
// never contains duplicates, never exceeds the membership, and is exactly
// reproducible under DefaultSeed.
func TestPropReplicaInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(0xdae))
	keys := propKeys(200)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(9)
		ms := members(n)
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		r := New(ms, 0, DefaultSeed)
		replicas := 1 + rng.Intn(4)
		for _, k := range keys {
			got := r.Nodes(k, replicas)
			if len(got) == 0 {
				t.Fatalf("trial %d: empty replica set for %q on %d-node ring", trial, k, n)
			}
			want := replicas
			if want > n {
				want = n
			}
			if len(got) != want {
				t.Fatalf("trial %d: %d replicas for %q, want %d (n=%d)", trial, len(got), k, want, n)
			}
			seen := map[string]bool{}
			for _, node := range got {
				if seen[node] {
					t.Fatalf("trial %d: duplicate replica %s for %q", trial, node, k)
				}
				seen[node] = true
			}
		}
		// Determinism: a second ring from a fresh shuffle of the same
		// membership must agree on every placement.
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
		r2 := New(ms, 0, DefaultSeed)
		for _, k := range keys {
			a, b := r.Nodes(k, replicas), r2.Nodes(k, replicas)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d: permuted membership changed placement of %q: %v vs %v", trial, k, a, b)
				}
			}
		}
	}
}

// TestFractionsSumToOne pins the ownership-fraction arithmetic: fractions
// sum to ~1 and every member owns a nonzero share.
func TestFractionsSumToOne(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 9} {
		r := New(members(n), 0, DefaultSeed)
		fr := r.Fractions()
		if len(fr) != n {
			t.Fatalf("n=%d: %d fractions", n, len(fr))
		}
		sum := 0.0
		for m, f := range fr {
			if f <= 0 || f >= 1 {
				if n > 1 || f != 1 {
					t.Fatalf("n=%d: member %s owns fraction %v", n, m, f)
				}
			}
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("n=%d: fractions sum to %v", n, sum)
		}
	}
	if got := New(nil, 0, DefaultSeed).Fractions(); len(got) != 0 {
		t.Fatalf("empty ring fractions = %v", got)
	}
}

// TestViewStampsEpoch pins the View construction used for epoch-pinned
// request handling.
func TestViewStampsEpoch(t *testing.T) {
	v := At(7, members(3), 0, DefaultSeed)
	if v.Epoch != 7 {
		t.Fatalf("epoch = %d", v.Epoch)
	}
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	if v.Primary("k") != New(members(3), 0, DefaultSeed).Primary("k") {
		t.Fatalf("view ring disagrees with plain ring")
	}
}

// TestPropSuffixKeysSpread: keys that differ only in their last characters
// spread over the ring like any others, so every member of a 3-node, R=2
// ring holds a fair share of them.
func TestPropSuffixKeysSpread(t *testing.T) {
	r := New(members(3), 0, DefaultSeed)
	held := map[string]int{}
	primary := map[string]int{}
	const n = 300
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("drill/warm-%03d", i)
		for _, o := range r.Nodes(k, 2) {
			held[o]++
		}
		primary[r.Primary(k)]++
	}
	for _, m := range members(3) {
		// Fair is 2/3 of the keys held and 1/3 as primary.
		if held[m] < n/2 || primary[m] < n/5 {
			t.Errorf("%s holds %d and is primary for %d of %d suffix-only keys", m, held[m], primary[m], n)
		}
	}
}
