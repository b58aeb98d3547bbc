package daed

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightMapCollapses: concurrent callers on one key of the server's
// simulate flights share a single execution and all observe its artifact.
func TestFlightMapCollapses(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	want := &simArtifact{App: "CG", Report: "report"}
	var execs atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{})

	type result struct {
		a      *simArtifact
		err    error
		leader bool
	}
	lead := make(chan result, 1)
	go func() {
		a, err, leader := s.sims.Do(context.Background(), "k", func(context.Context) (*simArtifact, error) {
			close(started)
			execs.Add(1)
			<-gate
			return want, nil
		})
		lead <- result{a, err, leader}
	}()
	<-started

	const followers = 16
	var wg, joining sync.WaitGroup
	results := make([]result, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		joining.Add(1)
		go func(i int) {
			defer wg.Done()
			joining.Done()
			a, err, leader := s.sims.Do(context.Background(), "k", func(context.Context) (*simArtifact, error) {
				execs.Add(1)
				return &simArtifact{App: "other"}, nil
			})
			results[i] = result{a, err, leader}
		}(i)
	}
	joining.Wait()
	time.Sleep(50 * time.Millisecond)
	close(gate)
	if r := <-lead; r.a != want || r.err != nil || !r.leader {
		t.Fatalf("leader = (%v, %v, leader=%t); want the artifact as leader", r.a, r.err, r.leader)
	}
	wg.Wait()
	if n := execs.Load(); n != 1 {
		t.Fatalf("executions = %d, want 1", n)
	}
	for i, r := range results {
		if r.a != want || r.err != nil || r.leader {
			t.Errorf("follower %d = (%v, %v, leader=%t); want the leader's artifact as follower", i, r.a, r.err, r.leader)
		}
	}
}
