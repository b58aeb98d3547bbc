package daed_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"dae/internal/bench"
	"dae/internal/daed"
	"dae/internal/daed/ring"
	"dae/internal/eval"
	"dae/internal/rt"
)

// localTraces collects app in process with the configuration a default
// /v1/trace request plans: the reference every served trace set must equal.
func localTraces(t *testing.T, app string) *eval.AppData {
	t.Helper()
	a, err := bench.AppByName(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rt.DefaultTraceConfig()
	cfg.Degrade = rt.DegradeAccess
	d, err := eval.CollectWith(context.Background(), a, cfg, eval.CollectOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkTraceResponse requires resp to carry want's trace set and the
// expected per-request fields.
func checkTraceResponse(t *testing.T, what string, resp *daed.TraceResponse, want *eval.AppData, key string, hit bool) {
	t.Helper()
	if resp.CacheHit != hit || resp.Collapsed || resp.Key != key || resp.Degraded {
		t.Fatalf("%s: cache_hit=%v collapsed=%v degraded=%v key=%q, want cache_hit=%v collapsed=false key=%q",
			what, resp.CacheHit, resp.Collapsed, resp.Degraded, resp.Key, hit, key)
	}
	if resp.Data == nil {
		t.Fatalf("%s: no data", what)
	}
	got, err := resp.Data.Decode()
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if got.Name != want.Name || !reflect.DeepEqual(got.CAE, want.CAE) ||
		!reflect.DeepEqual(got.Manual, want.Manual) || !reflect.DeepEqual(got.Auto, want.Auto) {
		t.Fatalf("%s: served traces differ from the in-process collection", what)
	}
	w, err := eval.EncodeAppData(want)
	if err != nil {
		t.Fatal(err)
	}
	local, err := w.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, local.Results) {
		t.Fatalf("%s: served result summaries differ from the in-process collection", what)
	}
}

func newTraceServer(t testing.TB, dir string) (*daed.Server, *daed.Client) {
	t.Helper()
	s := daed.New(daed.Config{Workers: 1, Dir: dir})
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &daed.Client{Base: ts.URL}
}

// putArtifact sends PUT /v1/artifact and returns the status.
func putArtifact(t testing.TB, base, key string, payload []byte) int {
	t.Helper()
	body, err := json.Marshal(daed.ArtifactPutRequest{Key: key, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/artifact", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getArtifact fetches the stored payload under key.
func getArtifact(t *testing.T, base, key string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/artifact?key=" + url.QueryEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact get %s: status %d", key, resp.StatusCode)
	}
	return buf.Bytes()
}

// TestTraceColdThenHit: a cold /v1/trace request collects, a repeat is a
// store hit served from the stored bytes, and both decode to the traces an
// in-process collection produces. A store hit's body is the stored
// artifact with the per-request fields appended.
func TestTraceColdThenHit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full trace collection")
	}
	want := localTraces(t, "CG")
	s, c := newTraceServer(t, t.TempDir())
	ctx := context.Background()
	req := &daed.TraceRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.Trace(ctx, req)
	if err != nil {
		t.Fatalf("cold trace: %v", err)
	}
	checkTraceResponse(t, "cold", cold, want, key, false)
	hit, err := c.Trace(ctx, req)
	if err != nil {
		t.Fatalf("trace hit: %v", err)
	}
	checkTraceResponse(t, "hit", hit, want, key, true)
	if st := s.Stats(); st.Executions != 1 || st.StoreHits != 1 {
		t.Fatalf("executions=%d store_hits=%d, want 1 and 1", st.Executions, st.StoreHits)
	}

	// The stored artifact keeps the bytes the store has always written for
	// this input: the marshalled artifact through a RawMessage round trip.
	stored := getArtifact(t, c.Base, key)
	w, err := eval.EncodeAppData(want)
	if err != nil {
		t.Fatal(err)
	}
	art, err := json.Marshal(map[string]any{"data": w})
	if err != nil {
		t.Fatal(err)
	}
	var raw json.RawMessage
	if err := json.Unmarshal(art, &raw); err != nil {
		t.Fatal(err)
	}
	if legacy, err := json.Marshal(raw); err != nil || !bytes.Equal(stored, legacy) {
		t.Fatalf("stored artifact bytes differ from the legacy encoding (%v)", err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trace", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("handler status %d", rec.Code)
	}
	got := rec.Body.Bytes()
	if !bytes.HasPrefix(got, stored[:len(stored)-1]) || len(got) <= len(stored) {
		t.Fatal("a store hit's body does not start with the stored artifact")
	}
	// The spliced body is the very document encoding the decoded response
	// gives, as the hit path wrote before it served stored bytes.
	var resp daed.TraceResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("a store hit's body does not decode: %v", err)
	}
	var re bytes.Buffer
	if err := json.NewEncoder(&re).Encode(&resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), got) {
		t.Fatal("a store hit's body differs from the encoding of its decoded response")
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %s for a %d-byte body", cl, rec.Body.Len())
	}
}

// TestTraceHitProxied: with R=1 on two nodes, a trace request to the
// non-owner is proxied to the owner, cold and then as a store hit, and the
// relayed trace sets equal the in-process collection.
func TestTraceHitProxied(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full trace collection")
	}
	want := localTraces(t, "CG")
	nodes := startCluster(t, 2, 1)
	req := &daed.TraceRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	rg := ring.New([]string{nodes[0].url, nodes[1].url}, 0, daed.DefaultRingSeed)
	owner := byURL(t, nodes, rg.Primary(key))
	outsider := nodes[0]
	if outsider == owner {
		outsider = nodes[1]
	}
	c := &daed.Client{Base: outsider.url}
	ctx := context.Background()
	cold, err := c.Trace(ctx, req)
	if err != nil {
		t.Fatalf("cold trace via non-owner: %v", err)
	}
	checkTraceResponse(t, "proxied cold", cold, want, key, false)
	hit, err := c.Trace(ctx, req)
	if err != nil {
		t.Fatalf("trace hit via non-owner: %v", err)
	}
	checkTraceResponse(t, "proxied hit", hit, want, key, true)
	if st := outsider.srv.Stats(); st.Proxied != 2 || st.Executions != 0 {
		t.Fatalf("non-owner proxied %d and executed %d, want 2 and 0", st.Proxied, st.Executions)
	}
	if st := owner.srv.Stats(); st.Executions != 1 || st.StoreHits != 1 {
		t.Fatalf("owner executed %d with %d store hits, want 1 and 1", st.Executions, st.StoreHits)
	}
}

// TestTraceDamagedEnvelopeRecomputes: a bit-flipped envelope under a trace
// key is a miss that recomputes, never a hit serving damaged bytes.
func TestTraceDamagedEnvelopeRecomputes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full trace collection")
	}
	want := localTraces(t, "CG")
	dir := t.TempDir()
	req := &daed.TraceRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	_, c1 := newTraceServer(t, dir)
	if _, err := c1.Trace(context.Background(), req); err != nil {
		t.Fatalf("cold trace: %v", err)
	}

	// A second server over the same directory starts with an empty memory
	// level, so its first request reads the envelope from disk.
	s2, c2 := newTraceServer(t, dir)
	names, err := filepath.Glob(filepath.Join(dir, "artifacts", "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one stored envelope, found %v (%v)", names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte(`"Int":`))
	if i < 0 {
		t.Fatal("envelope holds no trace counts")
	}
	raw[i+len(`"Int":`)] ^= 1 // one digit of one count changes
	if err := os.WriteFile(names[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := c2.Trace(context.Background(), req)
	if err != nil {
		t.Fatalf("trace over a damaged envelope: %v", err)
	}
	checkTraceResponse(t, "recomputed", resp, want, key, false)
	if st := s2.Stats(); st.Executions != 1 || st.StoreHits != 0 {
		t.Fatalf("executions=%d store_hits=%d, want 1 and 0", st.Executions, st.StoreHits)
	}
}

// TestTraceArtifactPutIsSchemaChecked: the replication sink stores a trace
// artifact only if it is one; anything else under a trace key is rejected
// and the key stays a miss.
func TestTraceArtifactPutIsSchemaChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full trace collection")
	}
	want := localTraces(t, "CG")
	req := &daed.TraceRequest{App: "CG"}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	_, src := newTraceServer(t, t.TempDir())
	if _, err := src.Trace(context.Background(), req); err != nil {
		t.Fatalf("cold trace: %v", err)
	}
	good := getArtifact(t, src.Base, key)

	s, c := newTraceServer(t, t.TempDir())
	var degraded map[string]any
	if err := json.Unmarshal(good, &degraded); err != nil {
		t.Fatal(err)
	}
	degraded["degraded"] = true
	degradedPayload, err := json.Marshal(degraded)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"simulate artifact": []byte(`{"app":"CG","report":"synthetic"}`),
		"no data":           []byte(`{"data":null}`),
		"not an object":     []byte(`"trace"`),
		"damaged trace":     bytes.Replace(good, []byte(`"cores":4`), []byte(`"cores":0`), 1),
		"degraded":          degradedPayload,
	} {
		if code := putArtifact(t, c.Base, key, payload); code != http.StatusBadRequest {
			t.Errorf("%s: PUT status %d, want 400", name, code)
		}
		if hasKey(t, c.Base, key) {
			t.Fatalf("%s: rejected payload was stored", name)
		}
	}
	if code := putArtifact(t, c.Base, key, good); code != http.StatusNoContent {
		t.Fatalf("a real trace artifact: PUT status %d, want 204", code)
	}
	resp, err := c.Trace(context.Background(), req)
	if err != nil {
		t.Fatalf("trace after replication: %v", err)
	}
	checkTraceResponse(t, "replicated", resp, want, key, true)
	if st := s.Stats(); st.Executions != 0 {
		t.Fatalf("executed %d pipelines for a replicated artifact", st.Executions)
	}
}
