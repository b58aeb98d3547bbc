// Membership chaos: the self-healing cluster soak scenario. Three daed
// nodes take load through chaosnet proxies while the membership itself
// churns: an asymmetric one-way partition opens and heals in each
// direction, a cold fourth node joins mid-load, and an original member is
// removed and drains. The scenario asserts the self-healing contract under
// all of it: zero accepted requests lost, answers byte-identical across
// every epoch, and the repair passes (after the join, periodic, and the
// leaver's drain) demonstrably moving envelopes — not just counters
// sitting at zero.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"dae/internal/chaosnet"
	"dae/internal/daed"
	"dae/internal/daed/client"
	"dae/internal/daed/ring"
)

// membershipScenario runs the membership-churn drill once. seed drives the
// client's backoff jitter; the fault schedule itself is fully scripted
// (partition windows, join point, leave point), so one run replays exactly.
func membershipScenario(seed int64, iterTimeout time.Duration) (err error) {
	const nNodes = 3
	dir, err := os.MkdirTemp("", "chaos-membership-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Boot the three originals plus a cold joiner (a cluster of one until
	// the admin join absorbs it). Peer traffic runs on the direct wire; the
	// chaos sits on the client side.
	lns := make([]net.Listener, nNodes+1)
	direct := make([]string, nNodes+1)
	for i := range lns {
		ln, lerr := net.Listen("tcp", "127.0.0.1:0")
		if lerr != nil {
			return lerr
		}
		lns[i] = ln
		direct[i] = "http://" + ln.Addr().String()
	}
	srvs := make([]*daed.Server, nNodes+1)
	hss := make([]*http.Server, nNodes+1)
	for i := range srvs {
		var peers []string
		if i < nNodes {
			for j := 0; j < nNodes; j++ {
				if j != i {
					peers = append(peers, direct[j])
				}
			}
		}
		srvs[i] = daed.New(daed.Config{
			Workers: 2, Dir: fmt.Sprintf("%s/node%d", dir, i),
			Self: direct[i], Peers: peers, Replicas: 2,
			RepairInterval: 200 * time.Millisecond,
		})
		hss[i] = &http.Server{Handler: srvs[i]}
		go hss[i].Serve(lns[i])
		defer srvs[i].Close()
		defer hss[i].Close()
	}
	joiner := nNodes

	// Clean pass-through proxies for the three originals: this drill's chaos
	// is asymmetric partitions, not byte-level faults.
	proxies := make([]*chaosnet.Proxy, nNodes)
	proxyURLs := make([]string, nNodes)
	for i := range proxies {
		p, perr := chaosnet.New(chaosnet.Config{
			Target: lns[i].Addr().String(), Seed: uint64(seed) + uint64(i), FaultRate: -1,
		})
		if perr != nil {
			return perr
		}
		proxies[i] = p
		defer p.Close()
		proxyURLs[i] = p.URL()
	}

	// Pin: the dialed URLs are chaos proxies the server member list would
	// bypass. AttemptTimeout: a one-way partition hangs connections instead
	// of refusing them, so failover needs a per-attempt budget.
	cl := client.New(client.Config{
		Nodes: proxyURLs, Pin: true,
		AttemptTimeout: 1500 * time.Millisecond,
		BackoffBase:    5 * time.Millisecond,
		Probation:      100 * time.Millisecond, FailureThreshold: 2,
		BackoffSeed: uint64(seed) | 1,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 6*iterTimeout)
	defer cancel()

	hot := &daed.SimulateRequest{App: "CG"}
	ref, err := cl.Simulate(ctx, "clean", hot)
	if err != nil {
		return fmt.Errorf("chaos: membership reference request: %w", err)
	}
	mustServe := func(phase string, n int) error {
		for i := 0; i < n; i++ {
			resp, rerr := cl.Simulate(ctx, "clean", hot)
			if rerr != nil {
				return fmt.Errorf("chaos: membership %s request %d lost (accepted work must survive churn): %w", phase, i, rerr)
			}
			if resp.Report != ref.Report {
				return fmt.Errorf("chaos: membership %s request %d diverged from the reference report", phase, i)
			}
		}
		return nil
	}

	// Seed synthetic journaled envelopes chosen so the later churn provably
	// moves ownership: at least two keys the joiner will own. Its store is
	// fresh, so a repair pass must push them — the drill's proof that
	// repair moves real envelopes, not just counters.
	oldRing := ring.New(direct[:nNodes], 0, daed.DefaultRingSeed)
	joinedRing := ring.New(direct, 0, daed.DefaultRingSeed)
	const leaver = nNodes - 1 // node 0 stays the admin throughout
	var seeded []string
	joinerOwned := 0
	for n := 0; len(seeded) < 8 || joinerOwned < 2; n++ {
		if n > 256 {
			return fmt.Errorf("chaos: membership key selection did not converge")
		}
		k := fmt.Sprintf("chaos/mem-%03d", n)
		ownsJoiner := false
		for _, o := range joinedRing.Nodes(k, 2) {
			ownsJoiner = ownsJoiner || o == direct[joiner]
		}
		if len(seeded) >= 8 && !ownsJoiner {
			continue
		}
		if ownsJoiner {
			joinerOwned++
		}
		seeded = append(seeded, k)
		for _, o := range oldRing.Nodes(k, 2) {
			if perr := putSyntheticArtifact(ctx, o, k, "chaos-membership"); perr != nil {
				return perr
			}
		}
	}

	// Phase 1: asymmetric partitions, one direction at a time, against the
	// client's first-choice proxy for the hot key. Outbound: requests arrive
	// but answers vanish. Inbound: requests vanish. Both hang rather than
	// refuse — only the attempt budget gets the client off the dead wire.
	victim := 0
	head := ring.New(proxyURLs, 0, daed.DefaultRingSeed).Primary(mustKey(hot))
	for i, u := range proxyURLs {
		if u == head {
			victim = i
		}
	}
	proxies[victim].PartitionOneWay(chaosnet.DirOutbound)
	if err := mustServe("outbound-partition", 5); err != nil {
		return err
	}
	proxies[victim].Heal()
	proxies[victim].PartitionOneWay(chaosnet.DirInbound)
	if err := mustServe("inbound-partition", 4); err != nil {
		return err
	}
	proxies[victim].Heal()

	// Phase 2: a cold node joins mid-load.
	admin := &daed.Client{Base: direct[0]}
	jr, err := admin.Join(ctx, direct[joiner])
	if err != nil {
		return fmt.Errorf("chaos: membership join: %w", err)
	}
	if err := mustServe("join", 4); err != nil {
		return err
	}
	if err := waitCond(ctx, 15*time.Second, "joiner converges with its owned envelopes", func() bool {
		if r, rerr := admin.Ring(ctx); rerr != nil || r.Epoch < jr.Epoch {
			return false
		}
		for _, k := range seeded {
			owns := false
			for _, o := range joinedRing.Nodes(k, 2) {
				owns = owns || o == direct[joiner]
			}
			if owns && !peerHasArtifact(ctx, direct[joiner], k) {
				return false
			}
		}
		return true
	}); err != nil {
		return err
	}

	// Phase 3: an original member leaves and drains mid-load.
	if _, err := admin.Leave(ctx, direct[leaver]); err != nil {
		return fmt.Errorf("chaos: membership leave: %w", err)
	}
	if err := mustServe("leave", 5); err != nil {
		return err
	}

	// The repair machinery must have demonstrably moved envelopes.
	var moved int64
	for _, s := range srvs {
		st := s.Stats()
		moved += st.RepairPushed + st.ReadRepairs
	}
	if moved == 0 {
		return fmt.Errorf("chaos: membership drill moved no envelopes (repair passes and read-repair pulls all idle)")
	}
	if r, rerr := admin.Ring(ctx); rerr != nil || r.Epoch < jr.Epoch+1 {
		return fmt.Errorf("chaos: membership epoch did not advance past the leave (ring %+v, err %v)", r, rerr)
	}
	if got := cl.Counters(); got.Failovers == 0 {
		return fmt.Errorf("chaos: membership drill recorded no failovers despite partitions and a drained node: %+v", got)
	}
	return nil
}

func mustKey(req *daed.SimulateRequest) string {
	k, _ := req.Key()
	return k
}

// putSyntheticArtifact installs one synthetic simulate envelope through a
// node's peer replication sink — the same path repair passes use.
func putSyntheticArtifact(ctx context.Context, nodeURL, key, report string) error {
	payload, _ := json.Marshal(map[string]string{"app": "CG", "report": report})
	body, _ := json.Marshal(daed.ArtifactPutRequest{Key: key, Payload: payload})
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, nodeURL+"/v1/artifact", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("chaos: seed artifact on %s: %w", nodeURL, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: seed artifact on %s: status %d", nodeURL, resp.StatusCode)
	}
	return nil
}

// peerHasArtifact probes one node for key presence (HEAD /v1/artifact).
func peerHasArtifact(ctx context.Context, nodeURL, key string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodHead, nodeURL+"/v1/artifact?key="+key, nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// waitCond polls cond until it holds or the bound passes.
func waitCond(ctx context.Context, d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("chaos: timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil
}
