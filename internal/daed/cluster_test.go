package daed_test

import (
	"context"
	"errors"
	"net"
	"net/http"
	"testing"
	"time"

	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/daed/ring"
)

// clusterNode is one in-process daed cluster member: its server, the HTTP
// front end, and its advertised URL.
type clusterNode struct {
	srv *daed.Server
	hs  *http.Server
	url string
}

// startCluster boots n daed nodes on loopback ports that all know each
// other's advertised URLs, with replication factor r.
func startCluster(t *testing.T, n, r int) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		srv := daed.New(daed.Config{
			Workers: 2, Dir: t.TempDir(),
			Self: urls[i], Peers: peers, Replicas: r,
		})
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i])
		nodes[i] = &clusterNode{srv: srv, hs: hs, url: urls[i]}
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
	}
	return nodes
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// byURL finds a node by its advertised URL.
func byURL(t *testing.T, nodes []*clusterNode, url string) *clusterNode {
	t.Helper()
	for _, n := range nodes {
		if n.url == url {
			return n
		}
	}
	t.Fatalf("no node with url %s", url)
	return nil
}

// TestClusterKillDrill is the tentpole acceptance drill: a 3-node cluster
// with replication factor 2 takes a warm key, its primary is killed
// mid-load (hard close: connections refused, like SIGKILL), and every
// subsequent request still succeeds through the survivors with a
// byte-identical report — zero accepted requests lost.
func TestClusterKillDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pipeline execution")
	}
	nodes := startCluster(t, 3, 2)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	cl := client.New(client.Config{
		Nodes: urls, BackoffBase: 5 * time.Millisecond,
		Probation: 200 * time.Millisecond, BackoffSeed: 9,
	})
	ctx := context.Background()
	req := &daed.SimulateRequest{App: "CG"}

	ref, err := cl.Simulate(ctx, "drill", req)
	if err != nil {
		t.Fatalf("warm-up request: %v", err)
	}

	// The executing owner replicates write-behind; wait until at least one
	// replica holds the envelope before pulling the trigger.
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	rg := ring.New(urls, 0, daed.DefaultRingSeed)
	primary := byURL(t, nodes, rg.Primary(key))
	waitFor(t, 10*time.Second, "write-behind replication", func() bool {
		var in int64
		for _, n := range nodes {
			if n != primary {
				in += n.srv.Stats().ReplicatedIn
			}
		}
		return in >= 1
	})

	primary.hs.Close() // SIGKILL stand-in: refuse everything from here on

	for i := 0; i < 12; i++ {
		resp, err := cl.Simulate(ctx, "drill", req)
		if err != nil {
			t.Fatalf("request %d lost after primary death: %v", i, err)
		}
		if resp.Report != ref.Report {
			t.Fatalf("request %d report differs from pre-kill reference", i)
		}
	}
	if got := cl.Counters(); got.Failovers == 0 {
		t.Fatalf("no failovers recorded despite a dead primary: %+v", got)
	}
}

// TestClusterProxyServesUnownedKey: a request landing on the one node
// outside a key's replica set is proxied to an owner and relayed verbatim —
// the client sees the owner's byte-identical response, and the non-owner
// executes nothing itself.
func TestClusterProxyServesUnownedKey(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pipeline execution")
	}
	nodes := startCluster(t, 3, 2)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	req := &daed.SimulateRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	rg := ring.New(urls, 0, daed.DefaultRingSeed)
	owners := rg.Nodes(key, 2)
	var outsider *clusterNode
	for _, n := range nodes {
		if n.url != owners[0] && n.url != owners[1] {
			outsider = n
		}
	}
	ctx := context.Background()
	c := &daed.Client{Base: outsider.url}
	resp, err := c.Simulate(ctx, req)
	if err != nil {
		t.Fatalf("request via non-owner: %v", err)
	}
	ownerResp, err := (&daed.Client{Base: owners[0]}).Simulate(ctx, req)
	if err != nil {
		t.Fatalf("request via owner: %v", err)
	}
	if resp.Report != ownerResp.Report {
		t.Fatal("proxied report differs from the owner's")
	}
	st := outsider.srv.Stats()
	if st.Proxied == 0 {
		t.Fatalf("non-owner did not proxy: %+v", st)
	}
	if st.Executions != 0 {
		t.Fatalf("non-owner executed %d pipelines for a key it does not own", st.Executions)
	}
}

// TestClusterQuarantineLiftFansOut: quarantine is per-node state, so one
// DELETE /v1/quarantine against any member must lift the tenant's
// quarantine on every node — otherwise the "lifted" tenant keeps getting
// degraded answers from whichever nodes still remember it.
func TestClusterQuarantineLiftFansOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pipeline execution")
	}
	nodes := startCluster(t, 3, 2)
	ctx := context.Background()
	inj := &daed.SimulateRequest{App: "CG", Inject: "access-phase,CG,compiler-dae,,trap!"}
	for _, n := range nodes {
		resp, err := (&daed.Client{Base: n.url, Tenant: "X"}).Simulate(ctx, inj)
		if err != nil {
			t.Fatalf("injected request on %s: %v", n.url, err)
		}
		if !resp.Degraded {
			t.Fatalf("injected request on %s not degraded", n.url)
		}
	}
	cleared, err := (&daed.Client{Base: nodes[0].url, Tenant: "X"}).ClearQuarantine(ctx)
	if err != nil {
		t.Fatalf("quarantine lift: %v", err)
	}
	if cleared < 3 {
		t.Fatalf("lift cleared %d quarantines, want >=3 (one per node)", cleared)
	}
	clean := &daed.SimulateRequest{App: "CG"}
	for _, n := range nodes {
		resp, err := (&daed.Client{Base: n.url, Tenant: "X"}).Simulate(ctx, clean)
		if err != nil {
			t.Fatalf("post-lift request on %s: %v", n.url, err)
		}
		if resp.Degraded {
			t.Fatalf("node %s still degrades tenant X after a cluster-wide lift", n.url)
		}
	}
}

// TestClusterDrainHandsOff: Drain refuses new work with 503 + Retry-After
// and class "draining", finishes cleanly, and its repair pass under the
// leave view hands its envelopes to the surviving owners — which keep
// serving the key byte-identically. The draining node is made the key's
// only holder first, so no survivor's pass can deliver it instead.
func TestClusterDrainHandsOff(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pipeline execution")
	}
	nodes := startCluster(t, 3, 2)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	ctx := context.Background()
	req := &daed.SimulateRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	rg := ring.New(urls, 0, daed.DefaultRingSeed)
	primary := byURL(t, nodes, rg.Primary(key))

	ref, err := (&daed.Client{Base: primary.url}).Simulate(ctx, req)
	if err != nil {
		t.Fatalf("warm-up request: %v", err)
	}
	// Let write-behind replication land on the other owner, then drop every
	// copy but the primary's.
	replica := rg.Nodes(key, 2)[1]
	waitFor(t, 10*time.Second, "write-behind replication", func() bool { return hasKey(t, replica, key) })
	for _, n := range nodes {
		if n != primary {
			n.srv.DropArtifact(key)
			if hasKey(t, n.url, key) {
				t.Fatalf("%s still holds the key after the drop", n.url)
			}
		}
	}

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := primary.srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain returns only after its repair pass under the leave view, where
	// the two survivors are the key's owners (R=2).
	for _, u := range urls {
		if u != primary.url && !hasKey(t, u, key) {
			t.Fatalf("surviving owner %s misses the key after the drain", u)
		}
	}

	// The drained node sheds new work with the draining contract.
	_, err = (&daed.Client{Base: primary.url}).Simulate(ctx, req)
	var re *daed.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("drained node answered %v, want 503", err)
	}
	if re.Body.Class != "draining" {
		t.Fatalf("drained node rejected with class %q, want draining", re.Body.Class)
	}
	if re.RetryAfter <= 0 {
		t.Fatal("draining rejection carries no Retry-After hint")
	}

	// The cluster client routes around the drained node; the survivors hold
	// the handed-off envelope and answer byte-identically from the store.
	cl := client.New(client.Config{
		Nodes: urls, BackoffBase: 5 * time.Millisecond,
		Probation: 200 * time.Millisecond, BackoffSeed: 11,
	})
	resp, err := cl.Simulate(ctx, "t", req)
	if err != nil {
		t.Fatalf("request after drain: %v", err)
	}
	if resp.Report != ref.Report {
		t.Fatal("post-drain report differs from pre-drain reference")
	}
	if !resp.CacheHit {
		t.Fatal("survivor re-executed a handed-off key instead of serving its store")
	}
}
