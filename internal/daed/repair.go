package daed

import (
	"context"
	"time"

	"dae/internal/daed/ring"
)

// handoff asks the repair loop for a drain's pass under the leave view,
// bounded by the drain's ctx; the loop closes done when the pass returns.
type handoff struct {
	ctx  context.Context
	view *ring.View
	done chan struct{}
}

// repairLoop is the one goroutine that runs anti-entropy passes, so passes
// never overlap. Three triggers feed it: the RepairInterval ticker (off when
// the interval is negative), a kick from every adopted view that keeps this
// node in the ring (a burst of adoptions collapses into one pass), and
// Drain's handoff under the leave view.
func (s *Server) repairLoop() {
	defer s.loopWG.Done()
	var tick <-chan time.Time
	if s.cfg.RepairInterval > 0 {
		t := time.NewTicker(s.cfg.RepairInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			return
		case h := <-s.handoffs:
			s.repairPass(h.ctx, h.view)
			close(h.done)
		case <-tick:
			s.currentPass()
		case <-s.kick:
			s.currentPass()
		}
	}
}

// kickRepair asks for a pass under the current view without waiting for it.
func (s *Server) kickRepair() {
	select {
	case s.kick <- struct{}{}:
	default: // a pass is already due
	}
}

// currentPass runs one pass under the current view. A draining node runs
// only its drain's handoff pass.
func (s *Server) currentPass() {
	if s.draining.Load() {
		return
	}
	ctx, cancel := s.boundedCtx(time.Minute)
	defer cancel()
	s.repairPass(ctx, s.cluster.current())
}

// repairPass walks the local store hottest key first, pushes each envelope
// to the owners under v that miss it, and releases the keys this node no
// longer owns once every owner has a copy. Apart from write-behind
// replication it is the only code that moves stored envelopes between
// nodes: the prior owners' pass after a join delivers the joiner its keys,
// and a drain's pass under the leave view (which lacks this node) hands
// its envelopes to the survivors. The discipline is
// push-then-confirm-then-drop: a key is only released after a pass in which
// every owner answered a presence probe positively, so a partitioned probe
// can delay convergence but never lose the last copy. A handoff pass keeps
// its copies: the node is leaving, and its disk store outlives a restart.
func (s *Server) repairPass(ctx context.Context, v *ring.View) {
	c := s.cluster
	if len(c.peers(v)) == 0 {
		return
	}
	member := c.member(v)
	replicas := c.replicasFor(v)
	for _, key := range s.store.Hottest(0) {
		// A drain preempts a pass under a view that still holds this node:
		// the handoff pass is next.
		if ctx.Err() != nil || member && s.draining.Load() {
			return
		}
		owners := c.owners(v, key)
		mine := false
		confirmed := 0
		var missing []string
		probeFailed := false
		for _, o := range owners {
			if o == c.self {
				mine = true
				confirmed++
				continue
			}
			has, err := s.peerHas(ctx, o, key)
			switch {
			case err != nil:
				// Partial information: act on nothing for this key this
				// pass. Dropping on a failed probe could destroy the last
				// reachable copy.
				probeFailed = true
			case has:
				confirmed++
			default:
				missing = append(missing, o)
			}
		}
		if probeFailed {
			continue
		}
		if len(missing) > 0 {
			payload, ok := s.store.Get(key)
			if !ok {
				continue
			}
			for _, o := range missing {
				installed, err := s.putArtifact(ctx, o, key, payload)
				if err != nil {
					s.cfg.Log.Printf("daed: repair: push %s to %s: %v", key, o, err)
					continue
				}
				if installed {
					s.stats.repairPushed.Add(1)
				}
			}
			// The drop (if due) waits for the next pass's confirmation.
			continue
		}
		if member && !mine && confirmed >= replicas {
			if s.store.Release(key) {
				s.stats.repairDropped.Add(1)
			}
		}
	}
	s.stats.repairRounds.Add(1)
}

// pullFromReplicas is read-repair: this node owns key under the request's
// view but misses the envelope (it joined after the write, or lost the
// replication push). Before paying a pipeline execution, fetch the envelope
// from a co-owner; install re-verifies it (and schema-checks a trace set)
// before storing it. Returns the payload when a replica supplied it.
func (s *Server) pullFromReplicas(ctx context.Context, v *ring.View, key string) ([]byte, bool) {
	c := s.cluster
	if c == nil || v == nil || !c.owns(v, key) {
		return nil, false
	}
	for _, o := range c.owners(v, key) {
		if o == c.self {
			continue
		}
		payload, err := s.fetchArtifact(ctx, o, key)
		if err != nil {
			continue
		}
		if err := s.install(key, payload); err != nil {
			s.cfg.Log.Printf("daed: read-repair: install %s: %v", key, err)
			continue
		}
		s.stats.readRepairs.Add(1)
		return payload, true
	}
	return nil, false
}
