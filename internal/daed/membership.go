package daed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"dae/internal/daed/ring"
)

// handleMembers serves POST /v1/members: the admin join/leave operations and
// the peer-to-peer gossip that fans an adopted view out. Admin changes mint
// the next epoch and gossip it to the union of the old and new memberships
// (so both a joiner and a removed node learn their fate); gossip receivers
// adopt-if-newer and never re-gossip, which makes propagation loop-free.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "daed: standalone node has no membership", Class: "standalone"})
		return
	}
	var req MembersRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error(), Class: "parse"})
		return
	}
	switch req.Op {
	case "join", "leave":
		if req.Node == "" {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "daed: " + req.Op + " needs node", Class: "parse"})
			return
		}
		s.handleAdminChange(w, req.Op, req.Node)
	case "gossip", "":
		if req.Epoch == 0 || len(req.Members) == 0 {
			s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "daed: gossip needs epoch and members", Class: "parse"})
			return
		}
		v, _ := s.adoptView(req.Epoch, req.Members)
		s.writeJSON(w, http.StatusOK, MembersResponse{Epoch: v.Epoch, Members: v.Members()})
	default:
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "daed: unknown op " + req.Op, Class: "parse"})
	}
}

// handleAdminChange mints the next epoch for a join or leave and fans it
// out. Idempotent: joining a member or removing a non-member answers the
// current view unchanged, so operators can retry safely.
func (s *Server) handleAdminChange(w http.ResponseWriter, op, node string) {
	c := s.cluster
	for attempt := 0; attempt < 4; attempt++ {
		cur := c.current()
		members := cur.Members()
		present := false
		for _, m := range members {
			present = present || m == node
		}
		var next []string
		switch op {
		case "join":
			if present {
				s.writeJSON(w, http.StatusOK, MembersResponse{Epoch: cur.Epoch, Members: members})
				return
			}
			next = append(append([]string{}, members...), node)
		case "leave":
			if !present {
				s.writeJSON(w, http.StatusOK, MembersResponse{Epoch: cur.Epoch, Members: members})
				return
			}
			if len(members) == 1 {
				s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "daed: cannot remove the last member", Class: "parse"})
				return
			}
			next = make([]string, 0, len(members)-1)
			for _, m := range members {
				if m != node {
					next = append(next, m)
				}
			}
		}
		nv, ok := s.adoptView(cur.Epoch+1, next)
		if !ok && nv.Epoch >= cur.Epoch+1 && nv != cur {
			// A concurrent change won the epoch race; re-derive from the
			// fresher view.
			continue
		}
		if ok {
			// Fan out to the union of old and new members so a joiner learns
			// its first real view and a removed node learns it should drain.
			targets := map[string]bool{}
			for _, m := range members {
				targets[m] = true
			}
			for _, m := range next {
				targets[m] = true
			}
			delete(targets, c.self)
			urls := make([]string, 0, len(targets))
			for m := range targets {
				urls = append(urls, m)
			}
			s.loopWG.Add(1)
			go func(v *ring.View) {
				defer s.loopWG.Done()
				ctx, cancel := s.boundedCtx(10 * time.Second)
				defer cancel()
				s.gossip(ctx, v, urls)
			}(nv)
		}
		s.writeJSON(w, http.StatusOK, MembersResponse{Epoch: nv.Epoch, Members: nv.Members()})
		return
	}
	s.writeJSON(w, http.StatusConflict, ErrorResponse{Error: "daed: membership changing too fast, retry", Class: "conflict"})
}

// adoptView routes a candidate view through the cluster's adoption rule and
// runs the Server-level side effects of a change: a view that drops self
// starts the drain in the background (a leave is a drain), and a view that
// keeps self kicks a repair pass, so the prior owners push a joiner the
// envelopes it now owns.
func (s *Server) adoptView(epoch uint64, members []string) (*ring.View, bool) {
	c := s.cluster
	nv, changed := c.adopt(epoch, members)
	if !changed {
		return nv, false
	}
	s.cfg.Log.Printf("daed: membership epoch %d: %v", nv.Epoch, nv.Members())
	if c.member(nv) {
		s.kickRepair()
		return nv, true
	}
	if !s.draining.Load() {
		s.loopWG.Add(1)
		go func() {
			defer s.loopWG.Done()
			ctx, cancel := s.boundedCtx(s.cfg.DrainTimeout)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				s.cfg.Log.Printf("daed: drain after removal: %v", err)
			}
		}()
	}
	return nv, true
}

// gossip pushes one view to targets sequentially, each with a bounded
// per-peer timeout. Unreachable peers are logged and skipped: repair passes
// and 421 redirects converge them later.
func (s *Server) gossip(ctx context.Context, v *ring.View, targets []string) {
	body, err := json.Marshal(MembersRequest{Op: "gossip", Epoch: v.Epoch, Members: v.Members()})
	if err != nil {
		return
	}
	for _, peer := range targets {
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		req, err := http.NewRequestWithContext(pctx, http.MethodPost, peer+"/v1/members", bytes.NewReader(body))
		if err != nil {
			cancel()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.cluster.http.Do(req)
		if err != nil {
			s.cfg.Log.Printf("daed: gossip epoch %d to %s: %v", v.Epoch, peer, err)
			cancel()
			continue
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
	}
}

// fetchArtifact fetches one stored envelope from a peer (GET /v1/artifact).
// The local store re-verifies the envelope on install, so a damaged or
// tampered payload is rejected there, never served.
func (s *Server) fetchArtifact(ctx context.Context, peer, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/artifact?key="+url.QueryEscape(key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.cluster.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("daed: peer %s: artifact get status %d", peer, resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 8<<20))
}

// peerHas probes a peer for key presence (HEAD /v1/artifact) without
// bumping the key's recency there.
func (s *Server) peerHas(ctx context.Context, peer, key string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, peer+"/v1/artifact?key="+url.QueryEscape(key), nil)
	if err != nil {
		return false, err
	}
	resp, err := s.cluster.http.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, nil
	case http.StatusNotFound:
		return false, nil
	default:
		return false, fmt.Errorf("daed: peer %s: artifact head status %d", peer, resp.StatusCode)
	}
}

// handleRing serves GET /v1/ring: the node's current membership view, for
// debugging and for client Refresh.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "daed: standalone node has no ring", Class: "standalone"})
		return
	}
	s.writeJSON(w, http.StatusOK, s.ringResponse())
}

// ringResponse describes the cluster node's current view.
func (s *Server) ringResponse() *RingResponse {
	c := s.cluster
	v := c.current()
	return &RingResponse{
		Epoch:     v.Epoch,
		Self:      c.self,
		Members:   v.Members(),
		Replicas:  c.replicasFor(v),
		Ownership: v.Fractions(),
	}
}
