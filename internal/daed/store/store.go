// Package store implements daed's content-addressed artifact store: the
// serving-layer generalization of the trace cache. Where eval.TraceCache
// holds exactly one shape (collected traces keyed by run configuration),
// Store holds any JSON artifact — rendered simulate reports, compiled-module
// listings, encoded trace sets, analysis reports — under caller-chosen
// content keys, with the same integrity discipline the trace cache
// established: versioned envelopes, a SHA-256 content checksum validated on
// load, and atomic write-then-rename persistence so concurrent servers (or a
// server racing a CLI) sharing one directory never observe a torn artifact.
//
// The store is bounded. A byte budget (Config.MaxBytes) caps the persistent
// level; when a write pushes the store over budget, least-recently-used
// artifacts are evicted until it fits — except keys pinned by an in-flight
// request, which are never evicted. Recency survives restarts through an
// append-only access journal (crash-safe: a torn tail line degrades to lost
// recency, never to a lost artifact), and Open scrubs the directory up
// front, quarantining truncated or bit-flipped envelopes into a quarantine/
// subdirectory so they become clean misses instead of latent read errors.
//
// Corrupt, stale, or unreadable entries degrade to misses; the store never
// fails a request over a damaged disk entry.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// version is bumped whenever the envelope layout changes, invalidating
// stale on-disk artifacts.
const version = 1

// journalName is the access journal file inside the store directory.
const journalName = "atime.journal"

// quarantineDir is where the startup scrub moves damaged envelopes,
// relative to the store directory.
const quarantineDir = "quarantine"

// envelope is the on-disk form of one artifact.
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// entry is the store's index record for one retained artifact at the
// authoritative level (disk when persistence is on, memory otherwise).
type entry struct {
	key   string
	stem  string // hex filename stem (disk level)
	bytes int64  // envelope file size (or payload size in memory-only mode)
	seq   int64  // LRU clock: higher = more recently used
}

// Config configures a Store.
type Config struct {
	// Dir is the persistence root; empty means memory-only.
	Dir string
	// MaxMem bounds the in-memory payload cache entry count; <= 0 selects
	// DefaultMaxMem.
	MaxMem int
	// MaxBytes is the byte budget of the authoritative level; 0 means
	// unbounded. A single artifact larger than the budget is still
	// retained (evicting it immediately would make its key thrash), but it
	// evicts everything else unpinned.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of the store's accounting, exposed
// through the server's GET /v1/stats.
type Stats struct {
	// Entries and Bytes describe the retained artifact set.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes echoes the configured budget (0 = unbounded).
	MaxBytes int64 `json:"max_bytes"`
	// Evictions counts artifacts removed by the LRU budget enforcement.
	Evictions int64 `json:"evictions"`
	// ScrubScanned and ScrubQuarantined report the startup scrub: envelopes
	// examined and envelopes moved aside as damaged. Entries quarantined
	// lazily (damage detected on a later Get) also count here.
	ScrubScanned     int `json:"scrub_scanned"`
	ScrubQuarantined int `json:"scrub_quarantined"`
	// Pinned is the number of keys currently protected from eviction by
	// in-flight requests.
	Pinned int `json:"pinned"`
}

// Store is a two-level (memory, disk) content-addressed artifact store,
// safe for concurrent use. The memory level is a bounded payload cache; the
// disk level (enabled by a non-empty directory) persists across processes
// and enforces the byte budget.
type Store struct {
	dir      string
	maxMem   int
	maxBytes int64

	mu        sync.Mutex
	mem       map[string][]byte
	entries   map[string]*entry
	pins      map[string]int
	seq       int64
	diskBytes int64
	evictions int64
	scanned   int
	quarant   int
	journal   *os.File
	jLines    int
}

// DefaultMaxMem bounds the in-memory level when the config names no
// explicit cap. Artifacts are small (rendered reports, a few KB), so a few
// thousand entries cost single-digit MB.
const DefaultMaxMem = 4096

// New returns a store with default budget (unbounded). dir may be empty for
// a purely in-memory store; maxMem <= 0 selects DefaultMaxMem.
func New(dir string, maxMem int) *Store {
	return Open(Config{Dir: dir, MaxMem: maxMem})
}

// Open returns a store over cfg. With persistence enabled it scrubs the
// directory (damaged envelopes move to quarantine/ and become clean misses),
// indexes the surviving artifacts, and replays the access journal to restore
// LRU order across restarts. Open never fails: an unreadable directory
// degrades to an empty store that repopulates on write.
func Open(cfg Config) *Store {
	if cfg.MaxMem <= 0 {
		cfg.MaxMem = DefaultMaxMem
	}
	s := &Store{
		dir:      cfg.Dir,
		maxMem:   cfg.MaxMem,
		maxBytes: cfg.MaxBytes,
		mem:      make(map[string][]byte),
		entries:  make(map[string]*entry),
		pins:     make(map[string]int),
	}
	if s.dir != "" {
		s.scrubAndIndex()
		s.replayJournal()
		s.openJournal()
		s.enforceBudget("")
	}
	return s
}

// Close releases the journal handle (tests; long-running servers hold it
// for life).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.Close()
	s.journal = nil
	return err
}

// path maps a key to its artifact file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, stemOf(key)+".json")
}

// stemOf is the stable filename stem of a key.
func stemOf(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

func contentSum(payload json.RawMessage) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// scrubAndIndex walks the store directory once, indexing valid envelopes
// and quarantining damaged ones. Files are visited in name order so the
// initial (pre-journal) LRU order is deterministic.
func (s *Store) scrubAndIndex() {
	names, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return
	}
	sort.Strings(names)
	for _, name := range names {
		s.scanned++
		env, size, ok := readEnvelope(name)
		if !ok {
			s.quarantineFile(name)
			continue
		}
		if got := filepath.Base(name); got != stemOf(env.Key)+".json" {
			// An envelope under the wrong name (a copy, a renamed file)
			// would shadow nothing and leak bytes: quarantine it too.
			s.quarantineFile(name)
			continue
		}
		s.seq++
		s.entries[env.Key] = &entry{key: env.Key, stem: stemOf(env.Key), bytes: size, seq: s.seq}
		s.diskBytes += size
	}
}

// readEnvelope loads and validates one envelope file, returning its decoded
// form and file size. ok is false for any damage: unreadable, unparseable,
// stale version, or checksum mismatch.
func readEnvelope(name string) (env envelope, size int64, ok bool) {
	raw, err := os.ReadFile(name)
	if err != nil {
		return env, 0, false
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return env, 0, false
	}
	if env.Version != version || env.Key == "" || contentSum(env.Payload) != env.Sum {
		return env, 0, false
	}
	return env, int64(len(raw)), true
}

// quarantineFile moves a damaged envelope into the quarantine
// subdirectory (falling back to deletion if the move fails) so it can never
// shadow a future clean write, and counts it.
func (s *Store) quarantineFile(name string) {
	s.quarant++
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(name, filepath.Join(qdir, filepath.Base(name))) == nil {
			return
		}
	}
	_ = os.Remove(name)
}

// replayJournal restores recency: each journal line is a key whose access
// bumps its LRU clock. Lines naming unknown keys — including a torn final
// line from a crash mid-append — are skipped.
func (s *Store) replayJournal() {
	f, err := os.Open(filepath.Join(s.dir, journalName))
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		key := sc.Text()
		s.jLines++
		if e, ok := s.entries[key]; ok {
			s.seq++
			e.seq = s.seq
		}
	}
}

// openJournal opens the journal for appending.
func (s *Store) openJournal() {
	f, err := os.OpenFile(filepath.Join(s.dir, journalName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	s.journal = f
}

// touch bumps key's recency and appends it to the journal. Called with mu
// held. Journal growth is bounded by periodic compaction: when the journal
// holds many more lines than there are entries, it is rewritten to one line
// per retained key (tmp + rename, so a crash leaves either journal intact).
func (s *Store) touch(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	s.seq++
	e.seq = s.seq
	if s.journal == nil {
		return
	}
	if _, err := s.journal.WriteString(key + "\n"); err == nil {
		s.jLines++
	}
	if s.jLines > 4*len(s.entries)+1024 {
		s.compactJournal()
	}
}

// compactJournal rewrites the journal as the retained keys in LRU order.
// Called with mu held.
func (s *Store) compactJournal() {
	ordered := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
	var b strings.Builder
	for _, e := range ordered {
		b.WriteString(e.key)
		b.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(s.dir, "journal-*.tmp")
	if err != nil {
		return
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		return
	}
	if tmp.Close() != nil {
		return
	}
	if os.Rename(tmpName, filepath.Join(s.dir, journalName)) != nil {
		return
	}
	if s.journal != nil {
		s.journal.Close()
	}
	s.journal = nil
	s.jLines = len(ordered)
	s.openJournal()
}

// Get returns the artifact payload stored under key, consulting memory
// first and then disk. Damaged or stale entries are misses (and damaged
// ones are quarantined on sight).
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	b, ok := s.mem[key]
	if ok {
		s.touch(key)
		s.mu.Unlock()
		return b, true
	}
	s.mu.Unlock()
	if s.dir == "" {
		return nil, false
	}
	name := s.path(key)
	env, _, ok := readEnvelope(name)
	if !ok || env.Key != key {
		s.mu.Lock()
		if _, tracked := s.entries[key]; tracked {
			// The index says this key exists but the envelope is damaged
			// (post-scrub bit rot or a torn copy): quarantine it now so the
			// bytes stop counting against the budget.
			if _, err := os.Stat(name); err == nil {
				s.quarantineFile(name)
			}
			s.dropLocked(key)
		}
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Lock()
	s.rememberLocked(key, env.Payload)
	s.touch(key)
	s.mu.Unlock()
	return env.Payload, true
}

// Put stores payload (which must be valid JSON) under key, in memory and —
// when persistence is enabled — on disk via an atomic write-then-rename,
// then enforces the byte budget by evicting least-recently-used, unpinned
// artifacts. Disk failures are non-fatal: the store degrades to memory-only
// for that artifact.
func (s *Store) Put(key string, payload []byte) error {
	enc, err := compactPayload(payload)
	if err != nil {
		return err
	}
	if s.dir == "" {
		s.mu.Lock()
		s.rememberLocked(key, enc)
		if old, ok := s.entries[key]; ok {
			s.diskBytes -= old.bytes
		}
		s.seq++
		s.entries[key] = &entry{key: key, bytes: int64(len(enc)), seq: s.seq}
		s.diskBytes += int64(len(enc))
		s.enforceBudget(key)
		s.mu.Unlock()
		return nil
	}
	b := encodeEnvelope(key, enc)
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, "artifact-*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, s.path(key)); err != nil {
		return err
	}
	s.mu.Lock()
	s.rememberLocked(key, enc)
	if old, ok := s.entries[key]; ok {
		s.diskBytes -= old.bytes
	}
	s.seq++
	s.entries[key] = &entry{key: key, stem: stemOf(key), bytes: int64(len(b)), seq: s.seq}
	s.diskBytes += int64(len(b))
	s.touchJournalOnly(key)
	s.enforceBudget(key)
	s.mu.Unlock()
	return nil
}

// compactPayload validates payload as JSON and returns it compacted with
// HTML-significant characters and U+2028/U+2029 escaped: exactly the bytes
// json.Marshal(json.RawMessage(payload)) gives, which is the form every
// stored payload, and so every checksum on disk, has always had.
func compactPayload(payload []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return nil, err
	}
	var enc bytes.Buffer
	enc.Grow(compact.Len())
	json.HTMLEscape(&enc, compact.Bytes())
	return enc.Bytes(), nil
}

// encodeEnvelope writes the envelope of an already compacted payload, byte
// for byte what json.Marshal gives for it, without re-scanning the payload.
func encodeEnvelope(key string, payload []byte) []byte {
	k, _ := json.Marshal(key) // a string always marshals
	sum := contentSum(payload)
	b := make([]byte, 0, len(payload)+len(k)+len(sum)+64)
	b = fmt.Appendf(b, `{"version":%d,"key":%s,"sum":"%s","payload":`, version, k, sum)
	b = append(b, payload...)
	return append(b, '}')
}

// touchJournalOnly appends key to the journal without re-bumping seq (Put
// already assigned the newest seq). Called with mu held.
func (s *Store) touchJournalOnly(key string) {
	if s.journal == nil {
		return
	}
	if _, err := s.journal.WriteString(key + "\n"); err == nil {
		s.jLines++
	}
	if s.jLines > 4*len(s.entries)+1024 {
		s.compactJournal()
	}
}

// enforceBudget evicts least-recently-used unpinned artifacts until the
// authoritative level fits the budget. keep, when non-empty, names the key
// that triggered enforcement — it is never evicted in its own enforcement
// pass even when it alone exceeds the budget (thrashing its own writer
// helps no one; the next write will reconsider it). Called with mu held.
func (s *Store) enforceBudget(keep string) {
	if s.maxBytes <= 0 {
		return
	}
	for s.diskBytes > s.maxBytes {
		var victim *entry
		for _, e := range s.entries {
			if e.key == keep || s.pins[e.key] > 0 {
				continue
			}
			if victim == nil || e.seq < victim.seq {
				victim = e
			}
		}
		if victim == nil {
			return // everything left is pinned (or the keeper)
		}
		s.dropLocked(victim.key)
		s.evictions++
	}
}

// dropLocked removes key from every level: the index, the memory cache,
// and (when persistent) the disk file. Called with mu held.
func (s *Store) dropLocked(key string) {
	if e, ok := s.entries[key]; ok {
		s.diskBytes -= e.bytes
		delete(s.entries, key)
		if s.dir != "" && e.stem != "" {
			_ = os.Remove(filepath.Join(s.dir, e.stem+".json"))
		}
	}
	delete(s.mem, key)
}

// Delete removes key from the store (tests: a lost write or a wiped disk).
func (s *Store) Delete(key string) {
	s.mu.Lock()
	s.dropLocked(key)
	s.mu.Unlock()
}

// Release removes key only if no request holds it pinned, and reports
// whether it was dropped. The anti-entropy loop uses it to shed keys the
// node no longer owns: a pinned key is mid-request and will be retried on a
// later repair round rather than yanked out from under the reader.
func (s *Store) Release(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[key] > 0 {
		return false
	}
	if _, ok := s.entries[key]; !ok {
		return false
	}
	s.dropLocked(key)
	return true
}

// Has reports whether key is retained, without promoting it in the LRU
// order: repair probes must not distort the recency signal that decides
// eviction and the order of repair passes.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Pin protects key from eviction until the matching Unpin: a request that
// decided to execute against this key must not lose the artifact (or have a
// concurrent writer's artifact evicted) mid-flight. Pins are counted, so
// concurrent requests on one key nest.
func (s *Store) Pin(key string) {
	s.mu.Lock()
	s.pins[key]++
	s.mu.Unlock()
}

// Unpin releases one Pin reference.
func (s *Store) Unpin(key string) {
	s.mu.Lock()
	if s.pins[key] > 1 {
		s.pins[key]--
	} else {
		delete(s.pins, key)
	}
	s.mu.Unlock()
}

// Hottest returns up to n retained keys (every key when n <= 0) in
// most-recently-used-first order: the order a repair pass walks the store,
// so a drain cut short by its deadline has handed off the working set.
func (s *Store) Hottest(n int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ordered := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		ordered = append(ordered, e)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq > ordered[j].seq })
	if n > 0 && n < len(ordered) {
		ordered = ordered[:n]
	}
	out := make([]string, len(ordered))
	for i, e := range ordered {
		out[i] = e.key
	}
	return out
}

// rememberLocked installs an entry in the bounded memory level, evicting an
// arbitrary entry when full (map iteration order; the authoritative level
// still holds every artifact, so this eviction only costs a re-read).
// Called with mu held.
func (s *Store) rememberLocked(key string, payload []byte) {
	if _, ok := s.mem[key]; !ok && len(s.mem) >= s.maxMem {
		for k := range s.mem {
			delete(s.mem, k)
			break
		}
	}
	s.mem[key] = payload
}

// Len reports the number of artifacts in the memory level (tests).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats returns a snapshot of the store's accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:          len(s.entries),
		Bytes:            s.diskBytes,
		MaxBytes:         s.maxBytes,
		Evictions:        s.evictions,
		ScrubScanned:     s.scanned,
		ScrubQuarantined: s.quarant,
		Pinned:           len(s.pins),
	}
}
