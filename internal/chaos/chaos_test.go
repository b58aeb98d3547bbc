package chaos

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// checkGoroutines fails the test if the soak leaked goroutines. The runtime
// is single-threaded per run and the collection pools drain on return, so
// the count must settle back to the pre-soak level.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before soak, %d after", before, runtime.NumGoroutine())
}

// TestSoakShort is the tier-1 smoke: a fixed-seed randomized soak must
// uphold every supervision invariant and leak nothing.
func TestSoakShort(t *testing.T) {
	before := runtime.NumGoroutine()
	rep, err := Soak(Config{Seed: 1, Iterations: 48, IterTimeout: 20 * time.Second})
	if err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	if rep.Iterations != 48 {
		t.Fatalf("iterations = %d, want 48", rep.Iterations)
	}
	if got := rep.Healthy + rep.AccessFaults + rep.ExecFaults + rep.Mixed; got != rep.Iterations {
		t.Errorf("scenario counts sum to %d, want %d: %s", got, rep.Iterations, rep)
	}
	// With 48 draws at 30/40/20/10%, every scenario class occurs (the seed
	// is fixed, so this is a deterministic fact, not a flaky probability).
	if rep.Healthy == 0 || rep.AccessFaults == 0 || rep.ExecFaults == 0 || rep.Mixed == 0 {
		t.Errorf("a scenario class never ran: %s", rep)
	}
	if rep.Quarantines == 0 {
		t.Errorf("no quarantine ever happened: %s", rep)
	}
	checkGoroutines(t, before)
	t.Log(rep.String())
}

// TestSoakReproducible: the same seed reproduces the same soak, scenario by
// scenario — the property that makes a chaos failure debuggable.
func TestSoakReproducible(t *testing.T) {
	cfg := Config{Seed: 42, Iterations: 24, IterTimeout: 20 * time.Second}
	a, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Soak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed, different soaks:\n  %s\n  %s", a, b)
	}
}

// TestSoakTimed is the CI chaos job and the long local soak: set
// CHAOS_SOAK_SECONDS to enable (the CI smoke uses 30). It adds the
// trace-cache corruption scenario on top of the runtime iterations.
func TestSoakTimed(t *testing.T) {
	secs, err := strconv.Atoi(os.Getenv("CHAOS_SOAK_SECONDS"))
	if err != nil || secs <= 0 {
		t.Skip("set CHAOS_SOAK_SECONDS to run the timed soak")
	}
	before := runtime.NumGoroutine()
	rep, err := Soak(Config{
		Seed:           7,
		Duration:       time.Duration(secs) * time.Second,
		IterTimeout:    60 * time.Second,
		CacheSoak:      true,
		ServerSoak:     true,
		ClusterSoak:    true,
		MembershipSoak: true,
		Log:            t.Logf,
	})
	if err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	if rep.Iterations == 0 {
		t.Fatal("timed soak ran no iterations")
	}
	if rep.CacheRuns != 1 {
		t.Errorf("cache-corruption scenario ran %d times, want 1", rep.CacheRuns)
	}
	if rep.ServerRuns != 1 {
		t.Errorf("server-path scenario ran %d times, want 1", rep.ServerRuns)
	}
	if rep.ClusterRuns != 1 {
		t.Errorf("cluster network-chaos scenario ran %d times, want 1", rep.ClusterRuns)
	}
	if rep.MembershipRuns != 1 {
		t.Errorf("membership-churn scenario ran %d times, want 1", rep.MembershipRuns)
	}
	checkGoroutines(t, before)
	t.Log(rep.String())
}

// TestClusterScenario runs the network-chaos cluster drill directly: a
// 3-node replicated daed cluster behind chaosnet proxies, one node killed
// mid-run, zero accepted requests lost and byte-identical answers across
// failover.
func TestClusterScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 3-node cluster and runs pipeline executions")
	}
	if err := clusterScenario(13, 30*time.Second); err != nil {
		t.Fatalf("cluster drill invariant violation: %v", err)
	}
}

// TestMembershipScenario runs the membership-churn drill directly: load
// through one-way partitions, a cold node joining, an original member
// leaving — zero accepted requests lost and repair demonstrably moving
// envelopes across epochs.
func TestMembershipScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 4-node cluster and runs pipeline executions")
	}
	if err := membershipScenario(29, 30*time.Second); err != nil {
		t.Fatalf("membership drill invariant violation: %v", err)
	}
}
