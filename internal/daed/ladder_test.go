package daed

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dae/internal/bench"
)

// keyedRequest is a request body of a content-keyed endpoint.
type keyedRequest interface{ Key() (string, error) }

// ladderEndpoints are the endpoints that answer through serve, each with a
// valid request for an app.
var ladderEndpoints = []struct {
	path string
	req  func(app string) keyedRequest
}{
	{"/v1/simulate", func(app string) keyedRequest { return &SimulateRequest{App: app} }},
	{"/v1/compile", func(app string) keyedRequest { return &CompileRequest{App: app} }},
	{"/v1/trace", func(app string) keyedRequest { return &TraceRequest{App: app} }},
}

// ladderReply holds the members every ladder response shares: the serving
// flags of a success and the class of an error.
type ladderReply struct {
	status    int
	CacheHit  bool   `json:"cache_hit"`
	Collapsed bool   `json:"collapsed"`
	Class     string `json:"class"`
}

// postTo serves one POST of body (marshaled unless it is raw bytes) on s,
// stamped with epoch when it is non-empty.
func postTo(s *Server, path string, body any, epoch string) (ladderReply, error) {
	b, ok := body.([]byte)
	if !ok {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return ladderReply{}, err
		}
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	if epoch != "" {
		req.Header.Set(EpochHeader, epoch)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	reply := ladderReply{status: rec.Code}
	return reply, json.Unmarshal(rec.Body.Bytes(), &reply)
}

// newRingMember returns a member of a three-node ring (epoch 1, R=1) whose
// peers are loopback ports nothing listens on, with the periodic repair
// pass off.
func newRingMember(t *testing.T) *Server {
	t.Helper()
	s := New(Config{
		Dir:  t.TempDir(),
		Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:2", "http://127.0.0.1:3"},
		Replicas: 1, RepairInterval: -1,
	})
	t.Cleanup(s.Close)
	return s
}

// TestServingLadder drives every content-keyed endpoint through the rungs
// of the shared serving ladder: a malformed body, N concurrent identical
// misses, a store hit, a stale-epoch request to a non-owner, and a request
// to a draining server.
func TestServingLadder(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	// A member of a three-node ring at epoch 2 whose peers do not listen:
	// the 421 decision precedes every peer call.
	cs := newRingMember(t)
	cs.adoptView(2, cs.clusterView().Members())

	for _, ep := range ladderEndpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			before := s.Stats()
			if r, err := postTo(s, ep.path, []byte("{"), ""); err != nil || r.status != http.StatusBadRequest || r.Class != "parse" {
				t.Fatalf("malformed body = %+v, %v; want 400 parse", r, err)
			}

			// N concurrent identical misses. The test holds the one worker
			// slot, so the execution queues while every request arrives;
			// the pause lets the last decoded requests reach the flight (a
			// late one would be a store hit and fail the counts).
			const n = 6
			if err := s.q.acquire(context.Background()); err != nil {
				t.Fatal(err)
			}
			replies := make([]ladderReply, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					replies[i], errs[i] = postTo(s, ep.path, ep.req("CG"), "")
				}(i)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				st := s.Stats()
				if st.Requests == before.Requests+1+n && st.Waiting == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("requests never queued on one execution: %+v", st)
				}
			}
			time.Sleep(100 * time.Millisecond)
			s.q.release()
			wg.Wait()
			collapsed := 0
			for i, r := range replies {
				if errs[i] != nil || r.status != http.StatusOK || r.CacheHit {
					t.Fatalf("miss %d = %+v, %v; want 200 without cache_hit", i, r, errs[i])
				}
				if r.Collapsed {
					collapsed++
				}
			}
			st := s.Stats()
			if got := st.Executions - before.Executions; got != 1 {
				t.Errorf("executions = %d, want 1", got)
			}
			if got := st.Collapsed - before.Collapsed; got != n-1 || collapsed != n-1 {
				t.Errorf("collapsed = %d (%d responses), want %d", got, collapsed, n-1)
			}

			r, err := postTo(s, ep.path, ep.req("CG"), "")
			if err != nil || r.status != http.StatusOK || !r.CacheHit {
				t.Fatalf("hit = %+v, %v; want 200 with cache_hit", r, err)
			}
			after := s.Stats()
			if after.StoreHits != st.StoreHits+1 || after.Executions != st.Executions {
				t.Errorf("hit moved store_hits %d -> %d, executions %d -> %d; want +1, +0",
					st.StoreHits, after.StoreHits, st.Executions, after.Executions)
			}

			// A stale-epoch request for a key this member does not own.
			v := cs.clusterView()
			var stale keyedRequest
			for _, app := range bench.Apps() {
				req := ep.req(app.Name)
				if key, err := req.Key(); err == nil && !cs.cluster.owns(v, key) {
					stale = req
					break
				}
			}
			if stale == nil {
				t.Fatal("every app's key is owned by this member")
			}
			if r, err := postTo(cs, ep.path, stale, "1"); err != nil || r.status != http.StatusMisdirectedRequest || r.Class != "misdirected" {
				t.Errorf("stale-epoch request = %+v, %v; want 421 misdirected", r, err)
			}
		})
	}

	s.draining.Store(true)
	for _, ep := range ladderEndpoints {
		if r, err := postTo(s, ep.path, ep.req("CG"), ""); err != nil || r.status != http.StatusServiceUnavailable || r.Class != "draining" {
			t.Errorf("%s while draining = %+v, %v; want 503 draining", ep.path, r, err)
		}
	}
}
