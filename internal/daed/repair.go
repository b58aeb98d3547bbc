package daed

import (
	"context"
	"time"

	"dae/internal/daed/ring"
)

// repairLoop is the anti-entropy background loop: every RepairInterval it
// walks the journal-backed store index, recomputes each key's ownership
// under the current epoch, pushes under-replicated envelopes to the owners
// that miss them, and releases keys this node no longer owns once R copies
// are confirmed elsewhere. A peer that was down during writes — or a
// topology change that moved keys — converges without a client request ever
// touching those keys.
func (s *Server) repairLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(s.cfg.RepairInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.draining.Load() {
				continue
			}
			s.repairRound()
		}
	}
}

// repairRound runs one anti-entropy pass. The discipline is
// push-then-confirm-then-drop: a key is only released after a round in
// which every owner answered a presence probe positively, so a partitioned
// probe can delay convergence but never lose the last copy.
func (s *Server) repairRound() {
	c := s.cluster
	v := c.current()
	if v.Len() < 2 {
		return
	}
	ctx, cancel := s.boundedCtx(time.Minute)
	defer cancel()
	replicas := c.replicasFor(v)
	for _, key := range s.store.Keys() {
		select {
		case <-s.stop:
			return
		default:
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
				// round. Dropping on a failed probe could destroy the last
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
				installed, err := s.putArtifactInstalled(ctx, o, key, payload)
				if err != nil {
					s.cfg.Log.Printf("daed: repair: push %s to %s: %v", key, o, err)
					continue
				}
				if installed {
					s.stats.repairPushed.Add(1)
				}
			}
			// The drop (if due) waits for the next round's confirmation.
			continue
		}
		if !mine && confirmed >= replicas {
			if s.store.Release(key) {
				s.stats.repairDropped.Add(1)
			}
		}
	}
	s.stats.repairRounds.Add(1)
}

// maybeReadRepair is the push direction of read-repair: this node just
// served key from its local store but does not own it under the current
// view (the key moved in a membership change, or a handoff landed here).
// Install the verified envelope on the owners that miss it, write-behind,
// deduplicated per (epoch, key) so a hot mis-placed key costs one repair,
// not one per hit.
func (s *Server) maybeReadRepair(v *ring.View, key string, payload []byte) {
	c := s.cluster
	if c == nil || v == nil || c.owns(v, key) {
		return
	}
	if _, dup := s.readRepaired.LoadOrStore(repairMark{v.Epoch, key}, struct{}{}); dup {
		return
	}
	body := append([]byte(nil), payload...)
	s.repWG.Add(1)
	go func() {
		defer s.repWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, o := range c.owners(v, key) {
			if o == c.self {
				continue
			}
			has, err := s.peerHas(ctx, o, key)
			if err != nil || has {
				continue
			}
			installed, err := s.putArtifactInstalled(ctx, o, key, body)
			if err != nil {
				s.cfg.Log.Printf("daed: read-repair: push %s to %s: %v", key, o, err)
				continue
			}
			if installed {
				s.stats.readRepairs.Add(1)
			}
		}
	}()
}

// repairMark is one (epoch, key) pair maybeReadRepair has pushed.
type repairMark struct {
	epoch uint64
	key   string
}

// forgetRepairsBefore drops the read-repair marks of epochs before epoch:
// a newer view recomputes ownership, so an older mark never matches again.
// A request still pinned to an older view may add one after the sweep; the
// next adoption drops it.
func (s *Server) forgetRepairsBefore(epoch uint64) {
	s.readRepaired.Range(func(k, _ any) bool {
		if k.(repairMark).epoch < epoch {
			s.readRepaired.Delete(k)
		}
		return true
	})
}

// pullFromReplicas is the pull direction of read-repair: this node owns key
// under the request's view but misses the envelope (it joined after the
// write, or lost the replication push). Before paying a pipeline execution,
// fetch the envelope from a co-owner; install re-verifies it (and schema-
// checks a trace set) before storing it. Returns the payload when a replica
// supplied it.
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
