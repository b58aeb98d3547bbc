package daed_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"dae/internal/chaosnet"
	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/daed/ring"
)

// memberNode is one in-process cluster member with the knobs the membership
// tests need (fast repair loops, own artifact dir, restartable listener).
type memberNode struct {
	srv *daed.Server
	hs  *http.Server
	url string
}

// bootMember starts one daed node on a fresh loopback port. peers may be
// empty: that is a cluster of one, joinable later. repair < 0 turns off the
// periodic repair pass, so only membership changes and drains run passes.
func bootMember(t *testing.T, peers []string, repair time.Duration) *memberNode {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return bootMemberOn(t, ln, peers, repair)
}

func bootMemberOn(t *testing.T, ln net.Listener, peers []string, repair time.Duration) *memberNode {
	t.Helper()
	url := "http://" + ln.Addr().String()
	srv := daed.New(daed.Config{
		Workers: 2, Dir: t.TempDir(),
		Self: url, Peers: peers, Replicas: 2,
		RepairInterval: repair,
	})
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	n := &memberNode{srv: srv, hs: hs, url: url}
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return n
}

// bootCluster3 starts three members that know each other from boot.
func bootCluster3(t *testing.T, repair time.Duration) []*memberNode {
	t.Helper()
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*memberNode, 3)
	for i := range nodes {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nodes[i] = bootMemberOn(t, lns[i], peers, repair)
	}
	return nodes
}

// putSynthetic installs a synthetic simulate artifact under key on one node
// via the peer replication sink — the same path repair passes use.
func putSynthetic(t *testing.T, nodeURL, key, report string) {
	t.Helper()
	payload, _ := json.Marshal(map[string]string{"app": "CG", "report": report})
	body, _ := json.Marshal(daed.ArtifactPutRequest{Key: key, Payload: payload})
	req, err := http.NewRequest(http.MethodPut, nodeURL+"/v1/artifact", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("artifact put to %s: %v", nodeURL, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact put to %s: status %d", nodeURL, resp.StatusCode)
	}
}

// hasKey probes one node for key presence over HEAD /v1/artifact.
func hasKey(t *testing.T, nodeURL, key string) bool {
	t.Helper()
	req, err := http.NewRequest(http.MethodHead, nodeURL+"/v1/artifact?key="+url.QueryEscape(key), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ringOf fetches one node's current view.
func ringOf(t *testing.T, nodeURL string) *daed.RingResponse {
	t.Helper()
	r, err := (&daed.Client{Base: nodeURL}).Ring(context.Background())
	if err != nil {
		t.Fatalf("ring from %s: %v", nodeURL, err)
	}
	return r
}

// simKey returns the content key for a CG simulate at the given core count.
func simKey(t *testing.T, cores int) string {
	t.Helper()
	key, err := (&daed.SimulateRequest{App: "CG", Cores: cores}).Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestMembershipJoinAndGossip: an admin join against any member mints the
// next epoch, gossip carries it to every node including the joiner, and
// GET /v1/ring reports a consistent, fully-owned view everywhere.
func TestMembershipJoinAndGossip(t *testing.T) {
	a := bootMember(t, nil, -1)
	b := bootMember(t, []string{a.url}, -1)
	// b booted knowing a, but a booted alone: converge them via a join so
	// both sides agree before growing further.
	ctx := context.Background()
	ab, err := (&daed.Client{Base: a.url}).Join(ctx, b.url)
	if err != nil {
		t.Fatalf("join b: %v", err)
	}
	// The join reaches b by asynchronous gossip. Until it lands, b still
	// holds its boot view one epoch back and would mint the next join at
	// the epoch a already used, for a different member list.
	waitFor(t, 5*time.Second, "b adopts the join", func() bool {
		return ringOf(t, b.url).Epoch == ab.Epoch
	})
	c := bootMember(t, nil, -1)
	mr, err := (&daed.Client{Base: b.url}).Join(ctx, c.url)
	if err != nil {
		t.Fatalf("join c: %v", err)
	}
	if len(mr.Members) != 3 {
		t.Fatalf("join answered %d members, want 3", len(mr.Members))
	}
	nodes := []*memberNode{a, b, c}
	waitFor(t, 5*time.Second, "gossip convergence", func() bool {
		for _, n := range nodes {
			v := ringOf(t, n.url)
			if v.Epoch != mr.Epoch || len(v.Members) != 3 {
				return false
			}
		}
		return true
	})
	v := ringOf(t, a.url)
	if v.Self != a.url {
		t.Fatalf("ring self = %q, want %q", v.Self, a.url)
	}
	if v.Replicas != 2 {
		t.Fatalf("ring replicas = %d, want 2", v.Replicas)
	}
	sum := 0.0
	for _, f := range v.Ownership {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ownership fractions sum to %v, want 1", sum)
	}
	// Re-joining a member is idempotent: same epoch, same view.
	again, err := (&daed.Client{Base: a.url}).Join(ctx, c.url)
	if err != nil {
		t.Fatalf("idempotent join: %v", err)
	}
	if again.Epoch != mr.Epoch {
		t.Fatalf("re-join minted epoch %d, want unchanged %d", again.Epoch, mr.Epoch)
	}
	// The view also rides along in /v1/stats for operators.
	st := a.srv.Stats()
	if st.Ring == nil || st.Ring.Epoch != mr.Epoch {
		t.Fatalf("stats ring section missing or stale: %+v", st.Ring)
	}
}

// TestMembershipJoinStreamsWarmup: adopting a join kicks a repair pass on
// every member, so the prior owners push the joiner every envelope it now
// owns without a single client request, even with the periodic pass off.
func TestMembershipJoinStreamsWarmup(t *testing.T) {
	a := bootMember(t, nil, -1)
	b := bootMember(t, []string{a.url}, -1)
	ctx := context.Background()
	if _, err := (&daed.Client{Base: a.url}).Join(ctx, b.url); err != nil {
		t.Fatalf("join b: %v", err)
	}
	keys := make([]string, 24)
	for i := range keys {
		keys[i] = fmt.Sprintf("drill/warm-%02d", i)
		putSynthetic(t, a.url, keys[i], "warm")
		putSynthetic(t, b.url, keys[i], "warm")
	}
	j := bootMember(t, nil, -1)
	mr, err := (&daed.Client{Base: a.url}).Join(ctx, j.url)
	if err != nil {
		t.Fatalf("join joiner: %v", err)
	}
	waitFor(t, 5*time.Second, "the joiner adopts the join", func() bool {
		return ringOf(t, j.url).Epoch == mr.Epoch
	})
	// Every key the joiner now owns must arrive.
	rg := ring.New(mr.Members, 0, daed.DefaultRingSeed)
	var owned []string
	for _, k := range keys {
		if rg.Owns(k, j.url, 2) {
			owned = append(owned, k)
		}
	}
	if len(owned) == 0 {
		t.Fatal("joiner owns none of 24 keys — ring distribution broken")
	}
	waitFor(t, 10*time.Second, "the prior owners' pass delivers the joiner's keys", func() bool {
		for _, k := range owned {
			if !hasKey(t, j.url, k) {
				return false
			}
		}
		// The pusher counts an install once the 204 is back, which may
		// trail the receiver's install by a moment.
		return a.srv.Stats().RepairPushed+b.srv.Stats().RepairPushed >= 1
	})
}

// TestMembershipLeaveDrainsRemoved: an admin leave removes the node at the
// next epoch; the removed node learns via gossip, drains, hands its
// envelopes to the surviving owners in a repair pass under the view that
// removed it (minting no further epoch), and refuses new work.
func TestMembershipLeaveDrainsRemoved(t *testing.T) {
	nodes := bootCluster3(t, -1)
	ctx := context.Background()
	key := "drill/leave-0"
	putSynthetic(t, nodes[2].url, key, "handoff")
	mr, err := (&daed.Client{Base: nodes[0].url}).Leave(ctx, nodes[2].url)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if len(mr.Members) != 2 {
		t.Fatalf("leave answered %d members, want 2", len(mr.Members))
	}
	// Only the removed node holds the key, so only its drain's pass can
	// deliver it to the survivors, who both own it (R=2).
	waitFor(t, 10*time.Second, "survivors converge and the removed node hands off", func() bool {
		for _, n := range nodes[:2] {
			v := ringOf(t, n.url)
			if v.Epoch < mr.Epoch || len(v.Members) != 2 || !hasKey(t, n.url, key) {
				return false
			}
		}
		return nodes[2].srv.Stats().RepairPushed >= 1
	})
	// The removed node's drain gossips nothing: the view that removed it
	// already is the leave view, so no survivor adopts an epoch past it.
	for _, n := range nodes[:2] {
		if got := ringOf(t, n.url).Epoch; got != mr.Epoch {
			t.Fatalf("survivor %s at epoch %d after the drain, want the leave's %d", n.url, got, mr.Epoch)
		}
	}
	// The removed node sheds new work with the draining contract.
	_, err = (&daed.Client{Base: nodes[2].url}).Simulate(ctx, &daed.SimulateRequest{App: "CG"})
	var re *daed.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("removed node answered %v, want 503 draining", err)
	}
}

// TestAntiEntropyPushesAndDrops: the repair loop pushes an envelope that
// landed on a non-owner to both owners, then — only after a round confirming
// R copies elsewhere — releases the misplaced local copy.
func TestAntiEntropyPushesAndDrops(t *testing.T) {
	nodes := bootCluster3(t, 100*time.Millisecond)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	key := "drill/repair-0"
	rg := ring.New(urls, 0, daed.DefaultRingSeed)
	owners := rg.Nodes(key, 2)
	var outsider *memberNode
	for _, n := range nodes {
		if n.url != owners[0] && n.url != owners[1] {
			outsider = n
		}
	}
	putSynthetic(t, outsider.url, key, "stray")
	waitFor(t, 10*time.Second, "repair push to both owners", func() bool {
		return hasKey(t, owners[0], key) && hasKey(t, owners[1], key)
	})
	waitFor(t, 10*time.Second, "repair drop of the stray copy", func() bool {
		return !hasKey(t, outsider.url, key)
	})
	st := outsider.srv.Stats()
	if st.RepairPushed < 2 {
		t.Fatalf("repair pushed %d installs, want >= 2", st.RepairPushed)
	}
	if st.RepairDropped < 1 {
		t.Fatalf("repair dropped %d keys, want >= 1", st.RepairDropped)
	}
	if st.RepairRounds < 1 {
		t.Fatal("repair rounds counter never advanced")
	}
}

// TestReadRepairPullOnOwnerMiss: an owner missing an envelope a co-owner
// holds pulls it before paying a pipeline execution, and serves it as a
// cache hit.
func TestReadRepairPullOnOwnerMiss(t *testing.T) {
	nodes := bootCluster3(t, -1)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	key := simKey(t, 3)
	rg := ring.New(urls, 0, daed.DefaultRingSeed)
	owners := rg.Nodes(key, 2)
	putSynthetic(t, owners[1], key, "synthetic-pull")
	missingOwner := byMemberURL(t, nodes, owners[0])
	resp, err := (&daed.Client{Base: owners[0]}).Simulate(context.Background(), &daed.SimulateRequest{App: "CG", Cores: 3})
	if err != nil {
		t.Fatalf("simulate against missing owner: %v", err)
	}
	if !resp.CacheHit || resp.Report != "synthetic-pull" {
		t.Fatalf("owner did not pull from replica: hit=%v report=%q", resp.CacheHit, resp.Report)
	}
	if !hasKey(t, owners[0], key) {
		t.Fatal("pulled envelope was not installed locally")
	}
	if got := missingOwner.srv.Stats().ReadRepairs; got < 1 {
		t.Fatalf("read_repairs = %d, want >= 1", got)
	}
	if got := missingOwner.srv.Stats().Executions; got != 0 {
		t.Fatalf("owner executed %d pipelines despite a replica holding the envelope", got)
	}
}

func byMemberURL(t *testing.T, nodes []*memberNode, url string) *memberNode {
	t.Helper()
	for _, n := range nodes {
		if n.url == url {
			return n
		}
	}
	t.Fatalf("no member with url %s", url)
	return nil
}

// TestStaleEpochRedirects421: a request stamped with an older epoch hitting
// a non-owner is answered 421 with the fresh view instead of being proxied —
// the client-visible signal that its routing table is stale.
func TestStaleEpochRedirects421(t *testing.T) {
	nodes := bootCluster3(t, -1)
	ctx := context.Background()
	j := bootMember(t, nil, -1)
	mr, err := (&daed.Client{Base: nodes[0].url}).Join(ctx, j.url)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	all := append([]*memberNode{}, nodes...)
	all = append(all, j)
	waitFor(t, 5*time.Second, "gossip convergence", func() bool {
		for _, n := range all {
			if ringOf(t, n.url).Epoch != mr.Epoch {
				return false
			}
		}
		return true
	})
	key := simKey(t, 4)
	rg := ring.New(mr.Members, 0, daed.DefaultRingSeed)
	owned := map[string]bool{}
	for _, o := range rg.Nodes(key, 2) {
		owned[o] = true
	}
	var outsider *memberNode
	for _, n := range all {
		if !owned[n.url] {
			outsider = n
		}
	}
	_, err = (&daed.Client{Base: outsider.url, Epoch: "1"}).Simulate(ctx, &daed.SimulateRequest{App: "CG", Cores: 4})
	var re *daed.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusMisdirectedRequest {
		t.Fatalf("stale-epoch request answered %v, want 421", err)
	}
	if re.Body.Class != "misdirected" {
		t.Fatalf("421 class %q, want misdirected", re.Body.Class)
	}
	if re.Body.Epoch != mr.Epoch || len(re.Body.Members) != len(mr.Members) {
		t.Fatalf("421 carries view epoch=%d members=%v, want epoch=%d with %d members",
			re.Body.Epoch, re.Body.Members, mr.Epoch, len(mr.Members))
	}
	if got := outsider.srv.Stats().Redirected; got < 1 {
		t.Fatalf("redirected = %d, want >= 1", got)
	}
}

// TestMembershipChurnDrill is the acceptance drill for the self-healing
// cluster: a 3-node cluster takes writes; one replica is killed mid-load and
// requests keep succeeding behind a one-way chaosnet partition (zero lost);
// the dead node is removed and a replacement joins at a new epoch with a
// cold store; repair passes restore R=2 for every journaled key without a
// single client request touching them; a misplaced hit is served from the
// store and a pass moves it to its owners; and every response stays
// byte-identical to a single-node reference.
func TestMembershipChurnDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full pipeline executions")
	}
	ctx := context.Background()
	req := &daed.SimulateRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}

	// Single-node reference: the byte-identity oracle for every later phase.
	refNode := bootMember(t, nil, -1)
	ref, err := (&daed.Client{Base: refNode.url}).Simulate(ctx, req)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	nodes := bootCluster3(t, 150*time.Millisecond)
	urls := []string{nodes[0].url, nodes[1].url, nodes[2].url}
	rg := ring.New(urls, 0, daed.DefaultRingSeed)
	victim := byMemberURL(t, nodes, rg.Primary(key))

	// One non-victim member sits behind a chaos proxy for the client path,
	// so a one-way partition can be staged without touching peer traffic.
	var proxied *memberNode
	for _, n := range nodes {
		if n != victim {
			proxied = n
			break
		}
	}
	target := proxied.url[len("http://"):]
	px, err := chaosnet.New(chaosnet.Config{Target: target, Seed: 0xdae, FaultRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	clientNodes := make([]string, 0, 3)
	for _, u := range urls {
		if u == proxied.url {
			clientNodes = append(clientNodes, px.URL())
		} else {
			clientNodes = append(clientNodes, u)
		}
	}
	// Pin: the dialed URLs include a chaos proxy the server-side member list
	// would bypass; AttemptTimeout: a one-way partition hangs, it does not
	// refuse.
	cl := client.New(client.Config{
		Nodes: clientNodes, Pin: true,
		AttemptTimeout: 1500 * time.Millisecond,
		BackoffBase:    5 * time.Millisecond,
		Probation:      200 * time.Millisecond,
		BackoffSeed:    13,
	})

	// Phase 1: warm the cluster and wait for write-behind replication.
	warm, err := cl.Simulate(ctx, "drill", req)
	if err != nil {
		t.Fatalf("warm request: %v", err)
	}
	if warm.Report != ref.Report {
		t.Fatal("cluster warm report differs from single-node reference")
	}
	// Either owner may have executed the request: a slow first attempt
	// fails over to the second owner, and whichever finishes first
	// replicates to the other. Wait until both hold the key.
	waitFor(t, 15*time.Second, "write-behind replication", func() bool {
		for _, o := range rg.Nodes(key, 2) {
			if !hasKey(t, o, key) {
				return false
			}
		}
		return true
	})

	// Seed extra journaled keys (synthetic, sim-keyed) on their owners so
	// the later churn provably moves ownership around.
	seeded := []string{}
	for cores := 2; cores <= 6; cores++ {
		k := simKey(t, cores)
		seeded = append(seeded, k)
		for _, o := range rg.Nodes(k, 2) {
			putSynthetic(t, o, k, fmt.Sprintf("synthetic-%d", cores))
		}
	}

	// Phase 2: one-way partition between client and the proxied member —
	// requests go in, answers never come back. Zero accepted requests lost.
	px.PartitionOneWay(chaosnet.DirOutbound)
	for i := 0; i < 6; i++ {
		resp, err := cl.Simulate(ctx, "drill", req)
		if err != nil {
			t.Fatalf("request %d lost behind one-way partition: %v", i, err)
		}
		if resp.Report != ref.Report {
			t.Fatalf("request %d behind partition not byte-identical", i)
		}
	}
	px.Heal()

	// Phase 3: kill the key's primary outright and keep writing through the
	// degraded cluster. A killed process runs no background loops either,
	// so its repair loop must not keep pushing into the survivors.
	victim.hs.Close()
	victim.srv.Close()
	for i := 0; i < 6; i++ {
		resp, err := cl.Simulate(ctx, "drill", req)
		if err != nil {
			t.Fatalf("request %d lost after primary death: %v", i, err)
		}
		if resp.Report != ref.Report {
			t.Fatalf("request %d after primary death not byte-identical", i)
		}
	}

	// Phase 4: remove the dead node at the next epoch, then join a cold
	// replacement at the one after.
	var admin *memberNode
	for _, n := range nodes {
		if n != victim {
			admin = n
			break
		}
	}
	if _, err := (&daed.Client{Base: admin.url}).Leave(ctx, victim.url); err != nil {
		t.Fatalf("leave dead node: %v", err)
	}
	replacement := bootMember(t, nil, 150*time.Millisecond)
	mr, err := (&daed.Client{Base: admin.url}).Join(ctx, replacement.url)
	if err != nil {
		t.Fatalf("join replacement: %v", err)
	}
	final := []*memberNode{replacement}
	for _, n := range nodes {
		if n != victim {
			final = append(final, n)
		}
	}
	waitFor(t, 10*time.Second, "epoch convergence after churn", func() bool {
		for _, n := range final {
			if ringOf(t, n.url).Epoch != mr.Epoch {
				return false
			}
		}
		return true
	})

	// Phase 5: repair passes alone restore R=2 for every journaled key — no
	// client request touches them. The replacement booted with an empty
	// store, so every key it now owns must arrive via a pass.
	rg3 := ring.New(mr.Members, 0, daed.DefaultRingSeed)
	all := append([]string{key}, seeded...)
	waitFor(t, 30*time.Second, "anti-entropy restores R=2", func() bool {
		for _, k := range all {
			for _, o := range rg3.Nodes(k, 2) {
				if !hasKey(t, o, k) {
					return false
				}
			}
		}
		return true
	})
	// Take one copy away from an owner other than the replacement and let
	// the periodic pass alone put it back.
	dropKey := seeded[0]
	var dropFrom *memberNode
	for _, o := range rg3.Nodes(dropKey, 2) {
		if o != replacement.url {
			dropFrom = byMemberURL(t, final, o)
			break
		}
	}
	dropFrom.srv.DropArtifact(dropKey)
	if hasKey(t, dropFrom.url, dropKey) {
		t.Fatal("dropped key still present")
	}
	waitFor(t, 30*time.Second, "anti-entropy restores the dropped copy", func() bool {
		return hasKey(t, dropFrom.url, dropKey)
	})
	// The pusher counts an install once the 204 is back, which may trail
	// the receiver's install by a moment.
	var pushed int64
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		pushed = 0
		for _, n := range final {
			pushed += n.srv.Stats().RepairPushed
		}
		if pushed >= 1 || time.Now().After(deadline) {
			break
		}
	}
	if pushed < 1 {
		t.Fatalf("repair pushed %d installs across the cluster, want >= 1", pushed)
	}

	// Phase 6: a misplaced hit. A fresh sim-keyed envelope lands on its
	// non-owner, which still serves it from its store; the envelope reaches
	// the owners through the non-owner's periodic pass, the only holder.
	k7 := simKey(t, 7)
	owned := map[string]bool{}
	for _, o := range rg3.Nodes(k7, 2) {
		owned[o] = true
	}
	var outsider *memberNode
	for _, n := range final {
		if !owned[n.url] {
			outsider = n
		}
	}
	before := outsider.srv.Stats()
	putSynthetic(t, outsider.url, k7, "synthetic-7")
	resp7, err := (&daed.Client{Base: outsider.url}).Simulate(ctx, &daed.SimulateRequest{App: "CG", Cores: 7})
	if err != nil {
		t.Fatalf("misplaced-hit request: %v", err)
	}
	if !resp7.CacheHit || resp7.Report != "synthetic-7" {
		t.Fatalf("misplaced hit not served from store: hit=%v report=%q", resp7.CacheHit, resp7.Report)
	}
	if got := outsider.srv.Stats().StoreHits; got != before.StoreHits+1 {
		t.Fatalf("non-owner store hits %d -> %d, want one more", before.StoreHits, got)
	}
	waitFor(t, 15*time.Second, "a pass installs the envelope on its owners", func() bool {
		for o := range owned {
			if !hasKey(t, o, k7) {
				return false
			}
		}
		return outsider.srv.Stats().RepairPushed >= before.RepairPushed+int64(len(owned))
	})

	// Phase 7: a fresh epoch-aware client refreshes into the final view and
	// the warm key still answers byte-identically.
	cl2 := client.New(client.Config{
		Nodes: []string{admin.url}, BackoffBase: 5 * time.Millisecond,
		Probation: 200 * time.Millisecond, BackoffSeed: 17,
	})
	if err := cl2.Refresh(ctx); err != nil {
		t.Fatalf("client refresh: %v", err)
	}
	if cl2.Epoch() != mr.Epoch || len(cl2.Members()) != len(mr.Members) {
		t.Fatalf("refreshed client at epoch %d with %d members, want %d/%d",
			cl2.Epoch(), len(cl2.Members()), mr.Epoch, len(mr.Members))
	}
	finalResp, err := cl2.Simulate(ctx, "drill", req)
	if err != nil {
		t.Fatalf("final request: %v", err)
	}
	if finalResp.Report != ref.Report {
		t.Fatal("final report differs from single-node reference after churn")
	}
}
