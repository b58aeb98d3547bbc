package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestPutGetRoundtrip(t *testing.T) {
	s := New(t.TempDir(), 0)
	payload := []byte(`{"report":"hello","n":3}`)
	if err := s.Put("k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k1")
	if !ok {
		t.Fatal("miss after put")
	}
	var v struct {
		Report string `json:"report"`
		N      int    `json:"n"`
	}
	if err := json.Unmarshal(got, &v); err != nil {
		t.Fatal(err)
	}
	if v.Report != "hello" || v.N != 3 {
		t.Fatalf("payload mangled: %s", got)
	}
}

func TestDiskPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	if err := New(dir, 0).Put("k", []byte(`"artifact"`)); err != nil {
		t.Fatal(err)
	}
	got, ok := New(dir, 0).Get("k")
	if !ok || !bytes.Equal(got, []byte(`"artifact"`)) {
		t.Fatalf("second instance: got %q ok=%t", got, ok)
	}
}

func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, 0)
	if err := s.Put("k", []byte(`"good"`)); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want 1 envelope, got %v (%v)", entries, err)
	}
	// Flip payload bytes in place: the checksum must catch it.
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	corrupted := bytes.Replace(raw, []byte(`"good"`), []byte(`"evil"`), 1)
	if bytes.Equal(raw, corrupted) {
		t.Fatal("corruption did not apply")
	}
	if err := os.WriteFile(entries[0], corrupted, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := New(dir, 0).Get("k"); ok {
		t.Fatal("corrupt envelope served as a hit")
	}
	// Truncated file: also a miss, not an error.
	if err := os.WriteFile(entries[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := New(dir, 0).Get("k"); ok {
		t.Fatal("truncated envelope served as a hit")
	}
}

func TestWrongKeyIsMiss(t *testing.T) {
	s := New(t.TempDir(), 0)
	if err := s.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("other"); ok {
		t.Fatal("hit on a key never stored")
	}
}

func TestInvalidJSONPayloadRejected(t *testing.T) {
	s := New("", 0)
	if err := s.Put("k", []byte(`{not json`)); err == nil {
		t.Fatal("invalid JSON payload accepted")
	}
}

func TestMemoryBound(t *testing.T) {
	s := New("", 8)
	for i := 0; i < 64; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n > 8 {
		t.Fatalf("memory level holds %d entries, cap is 8", n)
	}
}

// TestConcurrentPutGet exercises the store under -race: concurrent writers
// and readers on overlapping keys, plus eviction pressure.
func TestConcurrentPutGet(t *testing.T) {
	s := New(t.TempDir(), 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				key := fmt.Sprintf("k%d", i%4)
				if err := s.Put(key, []byte(`"v"`)); err != nil {
					t.Errorf("put %s: %v", key, err)
				}
				if b, ok := s.Get(key); ok && !bytes.Equal(b, []byte(`"v"`)) {
					t.Errorf("get %s: damaged payload %q", key, b)
				}
			}
		}(w)
	}
	wg.Wait()
	if b, ok := s.Get("k0"); !ok || !bytes.Equal(b, []byte(`"v"`)) {
		t.Fatalf("final get: %q ok=%t", b, ok)
	}
}

// TestBudgetEvictsLRU: writes past the byte budget evict least-recently-used
// artifacts; a Get refreshes recency and spares its key.
func TestBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(fmt.Sprintf(`{"pad":%q}`, make([]byte, 0)))
	_ = payload
	big := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, bytes.Repeat([]byte("x"), 200)))
	}
	probe := New(dir, 0)
	if err := probe.Put("size-probe", big(0)); err != nil {
		t.Fatal(err)
	}
	st := probe.Stats()
	perEntry := st.Bytes
	probe.Delete("size-probe")
	probe.Close()

	s := Open(Config{Dir: dir, MaxBytes: 3 * perEntry})
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), big(i)); err != nil {
			t.Fatal(err)
		}
	}
	// k0 is oldest; touch it so k1 becomes the LRU victim.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 evicted before budget exceeded")
	}
	if err := s.Put("k3", big(3)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k1"); ok {
		t.Fatal("LRU key k1 survived past the budget")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("recently-used key %s was evicted", k)
		}
	}
	st = s.Stats()
	if st.Evictions == 0 || st.Bytes > st.MaxBytes || st.Entries != 3 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

// TestPinnedKeysSurviveEviction: a pinned (in-flight) key is never the
// eviction victim, regardless of recency.
func TestPinnedKeysSurviveEviction(t *testing.T) {
	dir := t.TempDir()
	big := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, bytes.Repeat([]byte("x"), 200)))
	}
	probe := New(dir, 0)
	if err := probe.Put("size-probe", big(0)); err != nil {
		t.Fatal(err)
	}
	perEntry := probe.Stats().Bytes
	probe.Delete("size-probe")
	probe.Close()

	s := Open(Config{Dir: dir, MaxBytes: 2 * perEntry})
	defer s.Close()
	if err := s.Put("pinned", big(0)); err != nil {
		t.Fatal(err)
	}
	s.Pin("pinned")
	defer s.Unpin("pinned")
	for i := 0; i < 6; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), big(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get("pinned"); !ok {
		t.Fatal("pinned key was evicted under budget pressure")
	}
	if st := s.Stats(); st.Pinned != 1 {
		t.Fatalf("Pinned = %d, want 1", st.Pinned)
	}
}

// TestStartupScrubQuarantines: truncated and bit-flipped envelopes planted
// on disk are moved to quarantine/ at Open, reported in Stats, and served
// as clean misses — the node never crashes over them.
func TestStartupScrubQuarantines(t *testing.T) {
	dir := t.TempDir()
	seed := New(dir, 0)
	for i := 0; i < 3; i++ {
		if err := seed.Put(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	seed.Close()
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 3 {
		t.Fatalf("want 3 envelopes, got %v (%v)", entries, err)
	}
	// Truncate one, bit-flip another.
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(entries[1])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw2, []byte(`"payload"`))
	raw2[i+12] ^= 0x40
	if err := os.WriteFile(entries[1], raw2, 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(dir, 0)
	defer s.Close()
	st := s.Stats()
	if st.ScrubScanned != 3 || st.ScrubQuarantined != 2 || st.Entries != 1 {
		t.Fatalf("scrub stats: %+v", st)
	}
	hits := 0
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); ok {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("%d keys hit after scrub, want 1 survivor", hits)
	}
	q, err := filepath.Glob(filepath.Join(dir, quarantineDir, "*.json"))
	if err != nil || len(q) != 2 {
		t.Fatalf("quarantine dir holds %v (%v), want 2 files", q, err)
	}
	// A clean re-write of a quarantined key works and persists.
	if err := s.Put("k0", []byte(`{"v":0}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("re-written key missed")
	}
}

// TestJournalPersistsRecencyAcrossRestart: Get bumps survive a restart via
// the atime journal, changing which key a post-restart budget squeeze
// evicts.
func TestJournalPersistsRecencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	big := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"i":%d,"pad":"%s"}`, i, bytes.Repeat([]byte("x"), 200)))
	}
	s := New(dir, 0)
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), big(i)); err != nil {
			t.Fatal(err)
		}
	}
	perEntry := s.Stats().Bytes / 3
	// Touch k0 last so the journal records k0 as most recent.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	s.Close()

	// Reopen with a budget that forces one eviction: without the journal the
	// scan order would evict by filename; with it, k1 (least recent) goes.
	r := Open(Config{Dir: dir, MaxBytes: 2 * perEntry})
	defer r.Close()
	if _, ok := r.Get("k0"); !ok {
		t.Fatal("most-recent key k0 evicted: journal recency lost across restart")
	}
	if _, ok := r.Get("k1"); ok {
		t.Fatal("least-recent key k1 survived the post-restart squeeze")
	}
}

// TestJournalTornTailTolerated: a crash mid-append leaves a torn last line;
// reopen must not fail or mis-index.
func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, 0)
	if err := s.Put("k", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("k-torn-no-newline"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r := New(dir, 0)
	defer r.Close()
	if _, ok := r.Get("k"); !ok {
		t.Fatal("torn journal tail broke reopen")
	}
	if st := r.Stats(); st.Entries != 1 {
		t.Fatalf("entries after torn-tail reopen: %+v", st)
	}
}

// TestHottest: most-recently-used-first ordering for drain handoff.
func TestHottest(t *testing.T) {
	s := New(t.TempDir(), 0)
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	s.Get("k1") // k1 becomes hottest
	got := s.Hottest(2)
	if len(got) != 2 || got[0] != "k1" || got[1] != "k3" {
		t.Fatalf("Hottest(2) = %v, want [k1 k3]", got)
	}
	if all := s.Hottest(0); len(all) != 4 {
		t.Fatalf("Hottest(0) = %v, want all 4", all)
	}
}

// TestJournalCompaction: the journal is rewritten when it grows far past the
// entry count, and recency survives the rewrite.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, 0)
	defer s.Close()
	if err := s.Put("a", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		s.Get("a")
	}
	raw, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n > 2000 {
		t.Fatalf("journal never compacted: %d lines", n)
	}
	if got := s.Hottest(1); len(got) != 1 || got[0] != "a" {
		t.Fatalf("recency lost across compaction: %v", got)
	}
}

// TestKeysHasRelease covers the anti-entropy hooks: Hottest(0) walks every
// retained key, Has probes without bumping recency, and Release respects
// pins.
func TestKeysHasRelease(t *testing.T) {
	s := New(t.TempDir(), 0)
	defer s.Close()
	for _, k := range []string{"b", "a", "c"} {
		if err := s.Put(k, []byte(`1`)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Hottest(0); len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("Hottest(0) = %v", got)
	}
	if !s.Has("b") || s.Has("zz") {
		t.Fatalf("Has misreported")
	}
	// Has must not promote: after probing "a" repeatedly, "a" is still the
	// coldest (Puts set recency in order b, a, c... actually a was second).
	s.Get("c")
	s.Get("b")
	for i := 0; i < 10; i++ {
		s.Has("a")
	}
	hot := s.Hottest(3)
	if hot[len(hot)-1] != "a" {
		t.Fatalf("Has promoted a: order %v", hot)
	}
	s.Pin("b")
	if s.Release("b") {
		t.Fatalf("Release dropped a pinned key")
	}
	if !s.Has("b") {
		t.Fatalf("pinned key vanished")
	}
	s.Unpin("b")
	if !s.Release("b") {
		t.Fatalf("Release refused an unpinned key")
	}
	if s.Has("b") {
		t.Fatalf("released key still present")
	}
	if s.Release("b") {
		t.Fatalf("Release of a missing key reported true")
	}
}

// legacyEnvelope is Put's former encoding: a RawMessage round trip to
// compact the payload, then a marshal, unmarshal and marshal of the
// envelope so Sum covers the stored payload bytes.
func legacyEnvelope(t *testing.T, key string, payload []byte) (stored []byte, file []byte) {
	t.Helper()
	var compact json.RawMessage
	if err := json.Unmarshal(payload, &compact); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(compact)
	if err != nil {
		t.Fatal(err)
	}
	env := envelope{Version: version, Key: key, Payload: enc}
	pre, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var back envelope
	if err := json.Unmarshal(pre, &back); err != nil {
		t.Fatal(err)
	}
	env.Sum = contentSum(back.Payload)
	if file, err = json.Marshal(env); err != nil {
		t.Fatal(err)
	}
	return enc, file
}

// TestPutBytesMatchLegacyEncoding: Put's single compaction writes the same
// payload bytes, checksum and envelope file as the former round trips, so
// stores written before still verify and read back unchanged.
func TestPutBytesMatchLegacyEncoding(t *testing.T) {
	dir := t.TempDir()
	s := New(dir, 0)
	mem := New("", 0)
	for i, payload := range []string{
		`{"report":"plain","n":3}`,
		" {\n\t\"report\" : \"spaced out\" ,\r\n \"list\": [ 1 , 2.5e3, true, null ] }\n",
		`{"html":"<a href=\"x\">&amp;</a>","nested":{"k<>":"v&"}}`,
		"{\"sep\":\"line\u2028para\u2029end\",\"raw\":\"\u00e9\U0001F600\"}",
		`{"escaped":"< \n"}`,
		`"just a string <&>"`,
	} {
		key := fmt.Sprintf("trace/v1;k<&>%d", i)
		wantStored, wantFile := legacyEnvelope(t, key, []byte(payload))
		if err := s.Put(key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(s.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, wantFile) {
			t.Errorf("payload %d: envelope file differs:\n got %s\nwant %s", i, file, wantFile)
		}
		var env envelope
		if err := json.Unmarshal(file, &env); err != nil {
			t.Fatal(err)
		}
		if env.Sum != contentSum(wantStored) {
			t.Errorf("payload %d: sum %s, want %s", i, env.Sum, contentSum(wantStored))
		}
		if got, ok := New(dir, 0).Get(key); !ok || !bytes.Equal(got, wantStored) {
			t.Errorf("payload %d: reopened store reads %s (hit %v), want %s", i, got, ok, wantStored)
		}
		if err := mem.Put(key, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		if got, _ := mem.Get(key); !bytes.Equal(got, wantStored) {
			t.Errorf("payload %d: memory store holds %s, want %s", i, got, wantStored)
		}
	}
	for _, bad := range []string{``, `{`, `{"a":1}x`, `{'a':1}`} {
		if err := s.Put("bad", []byte(bad)); err == nil {
			t.Errorf("Put accepted invalid JSON %q", bad)
		}
	}
}
