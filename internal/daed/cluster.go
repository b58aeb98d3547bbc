package daed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"dae/internal/daed/ring"
)

// DefaultRingSeed seeds the cluster's consistent-hash ring. Every node and
// every client must agree on it (it is part of the cluster's identity, like
// the membership list), so it has a fixed default; deployments that want a
// different ring set the same seed everywhere.
const DefaultRingSeed = ring.DefaultSeed

// ForwardHeader marks a request as proxied by a cluster peer. A node never
// re-forwards a forwarded request, so a stale ring view cannot loop a
// request around the cluster.
const ForwardHeader = "X-Dae-Forward"

// DefaultReplicas is the replication factor when the config names none:
// every artifact lives on its primary plus one replica, so any single node
// loss keeps the full artifact set reachable.
const DefaultReplicas = 2

// cluster holds a Server's mutable membership view: the epoch-stamped ring,
// the replication factor, and the HTTP plumbing for replication, proxying,
// gossip, and repair passes. nil on a standalone server (no Self
// configured); a Self with no Peers is a cluster of one that peers can join.
type cluster struct {
	self        string // this node's advertised base URL (a ring member)
	seed        uint64
	cfgReplicas int // configured R, clamped to the view size at use
	http        *http.Client

	mu   sync.Mutex
	view *ring.View // immutable; membership changes install a new one
}

// newCluster builds the cluster view, or nil when the config describes a
// standalone node.
func newCluster(cfg Config) *cluster {
	if cfg.Self == "" {
		return nil
	}
	seed := cfg.RingSeed
	if seed == 0 {
		seed = DefaultRingSeed
	}
	c := &cluster{
		self:        cfg.Self,
		seed:        seed,
		cfgReplicas: cfg.Replicas,
		http:        &http.Client{},
	}
	if c.cfgReplicas <= 0 {
		c.cfgReplicas = DefaultReplicas
	}
	// Every correctly-configured member boots the same epoch-1 view, so the
	// cluster agrees from the first request; later changes only ever move
	// the epoch forward.
	c.view = ring.At(1, append([]string{cfg.Self}, cfg.Peers...), 0, seed)
	return c
}

// current returns the view a request pins at entry: ownership for the whole
// request is computed against this epoch even if the cluster changes shape
// while it is in flight.
func (c *cluster) current() *ring.View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// adopt installs (epoch, members) if it beats the current view: strictly
// newer epoch wins; an equal epoch with different members resolves
// deterministically to the lexically greater canonical member list, so two
// concurrent changes minting the same epoch converge cluster-wide without
// coordination. Returns the view now in force and whether it changed.
func (c *cluster) adopt(epoch uint64, members []string) (*ring.View, bool) {
	nv := ring.At(epoch, members, 0, c.seed)
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.view
	if nv.Epoch < cur.Epoch {
		return cur, false
	}
	if nv.Epoch == cur.Epoch {
		if strings.Join(nv.Members(), ",") <= strings.Join(cur.Members(), ",") {
			return cur, false
		}
	}
	c.view = nv
	return nv, true
}

// replicasFor clamps the configured replication factor to a view's size.
func (c *cluster) replicasFor(v *ring.View) int {
	r := c.cfgReplicas
	if r > v.Len() {
		r = v.Len()
	}
	return r
}

// owns reports whether this node is in key's replica set under v.
func (c *cluster) owns(v *ring.View, key string) bool {
	return v.Owns(key, c.self, c.replicasFor(v))
}

// owners returns key's replica set under v, in preference order.
func (c *cluster) owners(v *ring.View, key string) []string {
	return v.Nodes(key, c.replicasFor(v))
}

// replicaPeers returns key's owners excluding self, in preference order.
func (c *cluster) replicaPeers(v *ring.View, key string) []string {
	owners := c.owners(v, key)
	out := make([]string, 0, len(owners))
	for _, o := range owners {
		if o != c.self {
			out = append(out, o)
		}
	}
	return out
}

// member reports whether this node is in v's ring.
func (c *cluster) member(v *ring.View) bool {
	return slices.Contains(v.Members(), c.self)
}

// peers returns every member of v but self.
func (c *cluster) peers(v *ring.View) []string {
	ms := v.Members()
	out := make([]string, 0, len(ms))
	for _, m := range ms {
		if m != c.self {
			out = append(out, m)
		}
	}
	return out
}

// survivors returns the view with self removed at the next epoch: the
// ownership a drain hands off under, and the leave view Drain gossips.
func (c *cluster) survivors(v *ring.View) *ring.View {
	return ring.At(v.Epoch+1, c.peers(v), 0, c.seed)
}

// ArtifactPutRequest is the wire body of PUT /v1/artifact: peer-to-peer
// artifact replication (write-behind and repair passes).
type ArtifactPutRequest struct {
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// handleArtifactPut serves PUT /v1/artifact. It is the replication sink:
// peers push envelopes here after executing a pipeline for a key this node
// co-owns, and from their repair passes. The store re-validates and
// re-checksums the payload, and a trace/ payload must pass the trace schema
// check, so a damaged envelope is rejected, never stored.
// 204 means installed; 200 means the node already held the key, so senders
// can count real installs.
func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	var req ArtifactPutRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad request: " + err.Error(), Class: "parse"})
		return
	}
	if req.Key == "" || len(req.Payload) == 0 {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "daed: artifact put needs key and payload", Class: "parse"})
		return
	}
	if s.store.Has(req.Key) {
		w.WriteHeader(http.StatusOK)
		return
	}
	if err := s.install(req.Key, req.Payload); err != nil {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Class: "parse"})
		return
	}
	s.stats.replicatedIn.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleArtifactGet serves GET /v1/artifact?key=: the raw stored envelope,
// for read-repair pulls from co-owners. 404 on a miss. The receiving store
// re-verifies the envelope on install, so this endpoint never needs to.
func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		s.writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "daed: artifact get needs key", Class: "parse"})
		return
	}
	b, ok := s.store.Get(key)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "daed: no artifact for key", Class: "missing"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// handleArtifactHead serves HEAD /v1/artifact?key=: a presence probe that
// does not bump the key's recency (repair must not distort the LRU signal).
func (s *Server) handleArtifactHead(w http.ResponseWriter, r *http.Request) {
	if s.store.Has(r.URL.Query().Get("key")) {
		w.WriteHeader(http.StatusOK)
		return
	}
	w.WriteHeader(http.StatusNotFound)
}

// replicate pushes one artifact envelope to key's other owners,
// write-behind: the response to the executing request never waits on peers.
// Failures are logged and dropped — the artifact is re-derivable, the next
// execution on a surviving owner re-replicates, and repair passes converge
// whatever both miss.
func (s *Server) replicate(key string, payload []byte) {
	c := s.cluster
	if c == nil {
		return
	}
	v := c.current()
	peers := c.replicaPeers(v, key)
	if len(peers) == 0 {
		return
	}
	body := append([]byte(nil), payload...)
	s.repWG.Add(1)
	go func() {
		defer s.repWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, peer := range peers {
			if _, err := s.putArtifact(ctx, peer, key, body); err != nil {
				s.cfg.Log.Printf("daed: replicate %s to %s: %v", key, peer, err)
				continue
			}
			s.stats.replicatedOut.Add(1)
		}
	}()
}

// putArtifact PUTs one envelope to a peer's replication sink. The returned
// installed flag distinguishes a fresh install (204) from a peer that
// already held the key (200).
func (s *Server) putArtifact(ctx context.Context, peer, key string, payload []byte) (bool, error) {
	b, err := json.Marshal(ArtifactPutRequest{Key: key, Payload: payload})
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peer+"/v1/artifact", bytes.NewReader(b))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.cluster.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("daed: peer %s: artifact put status %d", peer, resp.StatusCode)
	}
	return resp.StatusCode == http.StatusNoContent, nil
}

// clearQuarantinePeers relays a tenant's quarantine lift to every peer.
// Forwarded lifts stay local (ForwardHeader), so two nodes cannot bounce a
// lift between each other. Unreachable peers are logged and skipped: they
// lose their quarantine state anyway when they restart.
func (s *Server) clearQuarantinePeers(r *http.Request, tenant string) int {
	c := s.cluster
	if c == nil || r.Header.Get(ForwardHeader) != "" {
		return 0
	}
	total := 0
	for _, peer := range c.peers(c.current()) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete, peer+"/v1/quarantine", nil)
		if err != nil {
			continue
		}
		req.Header.Set(ForwardHeader, "1")
		if t := r.Header.Get(TenantHeader); t != "" {
			req.Header.Set(TenantHeader, t)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			s.cfg.Log.Printf("daed: quarantine lift for %s to %s: %v", tenant, peer, err)
			continue
		}
		var body struct {
			Cleared int `json:"cleared"`
		}
		json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&body)
		resp.Body.Close()
		total += body.Cleared
	}
	return total
}

// notOwnerRedirect answers 421 Misdirected Request when an epoch-aware
// client at a stale epoch routed a key this node does not own: the response
// carries the fresh epoch and membership so the client adopts and re-routes
// to the real owner. Clients at the current epoch that land here anyway are
// deliberately failing over (their owners are down), so they get the legacy
// proxy path instead — a redirect would just bounce them.
func (s *Server) notOwnerRedirect(w http.ResponseWriter, r *http.Request, v *ring.View, key string) bool {
	c := s.cluster
	if c == nil || r.Header.Get(ForwardHeader) != "" {
		return false
	}
	var clientEpoch uint64
	if _, err := fmt.Sscanf(r.Header.Get(EpochHeader), "%d", &clientEpoch); err != nil || clientEpoch == 0 {
		return false
	}
	if clientEpoch >= v.Epoch || c.owns(v, key) {
		return false
	}
	s.stats.redirected.Add(1)
	s.writeJSON(w, http.StatusMisdirectedRequest, ErrorResponse{
		Error:   fmt.Sprintf("daed: not an owner of this key at epoch %d", v.Epoch),
		Class:   "misdirected",
		Epoch:   v.Epoch,
		Members: v.Members(),
	})
	return true
}

// proxy forwards a request for a key this node does not own (under the
// request's pinned view v) to the key's owners in preference order, relaying
// the first successful response verbatim (so a proxied response is
// byte-identical to one served by the owner). It reports false when no owner
// could serve — the caller then executes locally, because availability beats
// placement.
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, v *ring.View, path, key string, reqBody any) bool {
	c := s.cluster
	if c == nil || c.owns(v, key) || r.Header.Get(ForwardHeader) != "" {
		return false
	}
	b, err := json.Marshal(reqBody)
	if err != nil {
		return false
	}
	for _, owner := range c.owners(v, key) {
		if owner == c.self {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+path, bytes.NewReader(b))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(ForwardHeader, "1")
		if t := r.Header.Get(TenantHeader); t != "" {
			req.Header.Set(TenantHeader, t)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			s.cfg.Log.Printf("daed: proxy %s to %s: %v", key, owner, err)
			continue
		}
		// Only relay definitive successes. A saturated, draining, or failing
		// owner is this node's cue to serve the request itself.
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			s.cfg.Log.Printf("daed: proxy %s to %s: status %d, serving locally", key, owner, resp.StatusCode)
			continue
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(http.StatusOK)
		io.Copy(w, resp.Body)
		resp.Body.Close()
		s.stats.proxied.Add(1)
		return true
	}
	return false
}

// Draining reports whether the server has begun its drain protocol.
func (s *Server) Draining() bool { return s.draining.Load() }

// rejectDraining answers a request arriving after drain began: 503 with a
// Retry-After hint, so resilient clients fail over to a peer immediately.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	s.writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
		Error: "daed: draining", Class: "draining", RetryAfterMs: 1000,
	})
}

// Drain runs the graceful-shutdown protocol: flip /healthz and admission to
// draining (new work is refused with 503 + Retry-After), gossip the leave
// view (membership minus self at the next epoch) so peers converge without
// an admin call, let in-flight and queued executions finish, wait out
// write-behind replication, then run one repair pass under the leave view,
// hottest keys first, which hands every envelope to the owners that miss
// it. A node an admin leave already removed gossips nothing and hands off
// under the view that removed it. ctx bounds the whole protocol; on expiry
// Drain returns ctx.Err() with whatever handoff it managed. SIGTERM and an
// admin leave both land here, so every exit is a leave.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.cfg.Log.Printf("daed: drain: refusing new work")
	var leave *ring.View
	if c := s.cluster; c != nil {
		switch cur := c.current(); {
		case !c.member(cur):
			leave = cur
		case cur.Len() > 1:
			leave = c.survivors(cur)
			s.gossip(ctx, leave, c.peers(cur))
		}
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.stats.inFlight.Load() > 0 || s.stats.waiting.Load() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	// Write-behind replication still in flight belongs to executions that
	// just finished; bound the wait with ctx.
	done := make(chan struct{})
	go func() { s.repWG.Wait(); close(done) }()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-done:
	}
	if leave != nil {
		h := handoff{ctx: ctx, view: leave, done: make(chan struct{})}
		select {
		case s.handoffs <- h:
			<-h.done
		case <-s.stop:
		case <-ctx.Done():
		}
	}
	s.cfg.Log.Printf("daed: drain: complete")
	return ctx.Err()
}
