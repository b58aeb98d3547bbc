package daed

import (
	"fmt"
	"testing"
)

// newRingMember returns a member of a three-node ring (epoch 1, R=1) whose
// peers are loopback ports nothing listens on, with the repair loop off.
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

// TestReadRepairMarksKeepOnlyCurrentEpoch: adopting a newer view drops the
// read-repair marks of older epochs, so the dedup set stays bounded by one
// epoch's mis-placed keys however often membership changes.
func TestReadRepairMarksKeepOnlyCurrentEpoch(t *testing.T) {
	s := newRingMember(t)
	members := s.clusterView().Members()
	const last = 5
	for epoch := uint64(2); epoch <= last; epoch++ {
		v, changed := s.adoptView(epoch, members)
		if !changed {
			t.Fatalf("epoch %d not adopted", epoch)
		}
		for i := 0; i < 16; i++ {
			s.maybeReadRepair(v, fmt.Sprintf("sim/test;%d", i), []byte(`{}`))
		}
	}
	s.repWG.Wait()
	marks := 0
	s.readRepaired.Range(func(k, _ any) bool {
		if m := k.(repairMark); m.epoch != last {
			t.Errorf("mark %+v survived the adoption of epoch %d", m, last)
		}
		marks++
		return true
	})
	if marks == 0 {
		t.Fatal("no key was mis-placed at the current epoch; the test checks nothing")
	}
}
