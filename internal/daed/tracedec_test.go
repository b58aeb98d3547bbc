package daed_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dae/internal/daed"
	"dae/internal/daed/ring"
	"dae/internal/eval"
	"dae/internal/rt"
)

// postTrace sends POST /v1/trace for app to base and returns the raw body.
func postTrace(tb testing.TB, base, app string) []byte {
	tb.Helper()
	body, err := json.Marshal(&daed.TraceRequest{App: app})
	if err != nil {
		tb.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/trace", "application/json", bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		tb.Fatalf("POST /v1/trace %s: status %d (%v)", app, resp.StatusCode, err)
	}
	return raw
}

var (
	cgBodiesOnce      sync.Once
	cgCold, cgHit     []byte
	cgBodiesCollected bool
)

// cgBodies returns a cold and a store-hit /v1/trace response body for CG
// from one server, collected once per test binary.
func cgBodies(tb testing.TB) (cold, hit []byte) {
	tb.Helper()
	cgBodiesOnce.Do(func() {
		_, c := newTraceServer(tb, tb.TempDir())
		cgCold = postTrace(tb, c.Base, "CG")
		cgHit = postTrace(tb, c.Base, "CG")
		cgBodiesCollected = true
	})
	if !cgBodiesCollected {
		tb.Fatal("collecting the CG trace bodies failed in an earlier test")
	}
	return cgCold, cgHit
}

// reorderMembers re-encodes a trace response with the members of the
// response and of its data object in sorted key order (the reverse of most
// of the server's order) and an unknown member added at each level.
func reorderMembers(tb testing.TB, body []byte) []byte {
	tb.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		tb.Fatal(err)
	}
	var data map[string]json.RawMessage
	if err := json.Unmarshal(top["data"], &data); err != nil {
		tb.Fatal(err)
	}
	data["a_later_field"] = json.RawMessage(`{"nested":[1,-2.5e3,"x\u00e9",null,{"cae":true}]}`)
	top["zz_unknown"] = json.RawMessage(`[[[]],{},"\ud83d\ude00",false]`)
	var err error
	if top["data"], err = json.Marshal(data); err != nil {
		tb.Fatal(err)
	}
	out, err := json.Marshal(top)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// encodeAs is the body respondTrace writes for the data in body with the
// given flags.
func encodeAs(tb testing.TB, body []byte, degraded, collapsed bool) []byte {
	tb.Helper()
	var resp daed.TraceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		tb.Fatal(err)
	}
	resp.Degraded, resp.CacheHit, resp.Collapsed, resp.ElapsedMs = degraded, false, collapsed, 812.5
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(&resp); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// coldBody and degradedBody are the bodies of a collapsed cold request
// and of a degraded collection of the data in body.
func coldBody(tb testing.TB, body []byte) []byte     { return encodeAs(tb, body, false, true) }
func degradedBody(tb testing.TB, body []byte) []byte { return encodeAs(tb, body, true, false) }

// smallBodies are hand-made responses in the shapes the decoder takes: a
// spliced store hit, each member empty or null, escapes in every string,
// and whitespace everywhere.
var smallBodies = []string{
	`{"data":{"name":"CG","cae":{"version":2},"manual":[],"auto":"x","results":{"spmv":{"strategy":1,"has_access":true}}},"cache_hit":true,"collapsed":false,"key":"trace/v1;CG","elapsed_ms":0.0183}` + "\n",
	`{"data":null,"cache_hit":false,"collapsed":true,"key":"","elapsed_ms":0}`,
	`{"data":{}}`,
	`{}`,
	`{"data":{"name":null,"cae":null,"manual":null,"auto":null,"results":null},"degraded":null,"key":null}`,
	" \t{ \"data\" : { \"cae\" : [ 1 , { } , [ ] , \"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\" ] , \"name\" : \"\\u003cCG\\u003e\" } ,\r\n\"elapsed_ms\" : -1.5E-3 } \n",
	`{"degraded":true,"data":{"results":{},"auto":{"a":{"b":{"c":[0,-0,1e9,2.5E+3,0.5e-1]}}}},"unknown":{"k":[true,false,null]}}`,
	`{"data":{"name":"\ud800x\u2028\u2029<&>","cae":"\ud834\udd1e"}}`,
	"{\"key\":\"\xff\xfe raw bytes \xc3\"}",
}

// TestDecodeTraceResponseMatchesEncodingJSON: real hit, cold, proxied
// (2-node cluster, R=1), degraded, reordered and re-indented bodies, and
// the hand-made ones, decode to exactly what encoding/json decodes.
func TestDecodeTraceResponseMatchesEncodingJSON(t *testing.T) {
	bodies := map[string][]byte{}
	for i, b := range smallBodies {
		bodies["small "+strconv.Itoa(i)] = []byte(b)
	}
	bodies["tiny hit"] = tinyHitBody(t)
	if !testing.Short() {
		cold, hit := cgBodies(t)
		bodies["cold"], bodies["hit"] = cold, hit

		nodes := startCluster(t, 2, 1)
		key, err := (&daed.TraceRequest{App: "CG"}).Key()
		if err != nil {
			t.Fatal(err)
		}
		rg := ring.New([]string{nodes[0].url, nodes[1].url}, 0, daed.DefaultRingSeed)
		outsider := nodes[0]
		if outsider.url == rg.Primary(key) {
			outsider = nodes[1]
		}
		bodies["proxied cold"] = postTrace(t, outsider.url, "CG")
		bodies["proxied hit"] = postTrace(t, outsider.url, "CG")
		if st := outsider.srv.Stats(); st.Proxied != 2 {
			t.Fatalf("the non-owner proxied %d requests, want 2", st.Proxied)
		}

		bodies["degraded"] = degradedBody(t, hit)
		bodies["reordered hit"] = reorderMembers(t, hit)
		bodies["reordered cold"] = reorderMembers(t, cold)
		var indented bytes.Buffer
		if err := json.Indent(&indented, hit, " ", "\t"); err != nil {
			t.Fatal(err)
		}
		bodies["indented hit"] = indented.Bytes()
	}
	for name, b := range bodies {
		got, err := daed.DecodeTraceResponse(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want daed.TraceResponse
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: encoding/json: %v", name, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: decoded response differs from encoding/json's:\n got %+v\nwant %+v", name, got, &want)
		}
		if strings.HasPrefix(name, "small") {
			continue
		}
		if got.Data == nil {
			t.Fatalf("%s: no data", name)
		}
		if _, err := got.Data.Decode(); err != nil {
			t.Fatalf("%s: traces do not decode: %v", name, err)
		}
	}
}

// TestDecodeTraceResponseRejects: malformed responses are errors, and so
// are the three inputs encoding/json takes that the server never writes
// (repeated keys, case-folded keys, a top-level null).
func TestDecodeTraceResponseRejects(t *testing.T) {
	for _, c := range []struct {
		body      string
		jsonTakes bool
	}{
		{`{"key":"a","key":"b"}`, true},
		{`{"data":{"cae":1,"cae":2}}`, true},
		{`{"data":{},"data":null}`, true},
		{`{"Key":"a"}`, true},
		{`{"data":{"CAE":[1]}}`, true},
		{`{"Cache_Hit":true}`, true},
		{"{\"\u212aey\":\"kelvin\"}", true}, // U+212A folds to k
		{`null`, true},
		{` null `, true},
		{`[]`, false},
		{`"data"`, false},
		{``, false},
		{`{"data":{"cae":[1,]}}`, false},
		{`{"data":{"cae":{"a" 1}}}`, false},
		{`{"data":{"cae":01}}`, false},
		{`{"data":{"cae":1.}}`, false},
		{`{"data":{"cae":-}}`, false},
		{`{"data":{"cae":tru}}`, false},
		{`{"data":{"cae":"\x"}}`, false},
		{"{\"data\":{\"cae\":\"a\x01\"}}", false},
		{`{"data":{"cae":"\u12g4"}}`, false},
		{`{"data":[]}`, false},
		{`{"data":"x"}`, false},
		{`{"key":1}`, false},
		{`{"degraded":"yes"}`, false},
		{`{"data":{"results":[]}}`, false},
		{`{"data":{}} {}`, false},
		{`{"data":{}`, false},
		{`{"data":{"cae":[1,2]`, false},
		{`{"a":1,}`, false},
		{`{,"a":1}`, false},
		{`{"a":[1}`, false},
		{`{"a":{"b":]}}`, false},
	} {
		if _, err := daed.DecodeTraceResponse([]byte(c.body)); err == nil {
			t.Errorf("decoder accepted %.80q", c.body)
		}
		var resp daed.TraceResponse
		if err := json.Unmarshal([]byte(c.body), &resp); (err == nil) != c.jsonTakes {
			t.Errorf("%.80q: encoding/json error %v, want accepted=%v", c.body, err, c.jsonTakes)
		}
	}
	// The nesting limit is encoding/json's: 10000 containers open at once,
	// two of them the response and its data.
	for depth, want := range map[int]bool{9998: true, 9999: false} {
		body := `{"data":{"cae":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}}`
		_, err := daed.DecodeTraceResponse([]byte(body))
		var resp daed.TraceResponse
		jerr := json.Unmarshal([]byte(body), &resp)
		if (err == nil) != want || (jerr == nil) != want {
			t.Errorf("%d nested arrays in a trace member: decoder error %v, encoding/json error %v, want accepted=%v", depth, err, jerr, want)
		}
	}
}

// tinyHitBody returns the body a server writes for a store hit on a small
// trace set: the artifact is installed through PUT /v1/artifact, so the
// body is respondTraceHit's stored bytes with the spliced tail.
func tinyHitBody(tb testing.TB) []byte {
	tb.Helper()
	tr := &rt.Trace{Workload: "tiny <&>", Decoupled: true, Cores: 2, NumBatches: 1,
		Records:     []rt.TaskRecord{{Name: "axpy", Core: 1, HasAccess: true}, {Name: "dot\u2028", Degraded: true, FaultKind: "trap"}},
		Quarantined: map[string]string{"dot\u2028": "trap"}}
	w, err := eval.EncodeAppData(&eval.AppData{Name: "CG", CAE: &rt.Trace{Cores: 1}, Manual: tr, Auto: tr})
	if err != nil {
		tb.Fatal(err)
	}
	w.Results = map[string]eval.ResultSummary{"axpy": {Strategy: 1, Reason: "é", HasAccess: true}}
	art, err := json.Marshal(map[string]any{"data": w})
	if err != nil {
		tb.Fatal(err)
	}
	key, err := (&daed.TraceRequest{App: "CG"}).Key()
	if err != nil {
		tb.Fatal(err)
	}
	_, c := newTraceServer(tb, "")
	if code := putArtifact(tb, c.Base, key, art); code != http.StatusNoContent {
		tb.Fatalf("PUT of the tiny artifact: status %d", code)
	}
	return postTrace(tb, c.Base, "CG")
}

// FuzzDecodeTraceResponse holds the one-pass decoder to encoding/json: any
// input it accepts, encoding/json accepts and decodes to an equal
// TraceResponse. The seeds are server-written bodies of a small trace set
// (a store hit, its cold and degraded encodings, its members reordered
// with unknown ones added) and the hand-made ones; the full-size CG bodies
// are checked by TestDecodeTraceResponseMatchesEncodingJSON, since
// mutating 350 KB inputs would take the fuzzer's time.
func FuzzDecodeTraceResponse(f *testing.F) {
	for _, b := range smallBodies {
		f.Add([]byte(b))
	}
	hit := tinyHitBody(f)
	f.Add(hit)
	f.Add(coldBody(f, hit))
	f.Add(degradedBody(f, hit))
	f.Add(reorderMembers(f, hit))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := daed.DecodeTraceResponse(b)
		if err != nil {
			return
		}
		var want daed.TraceResponse
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("decoder accepted input encoding/json rejects (%v)", err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("decoded response differs from encoding/json's:\n got %+v\nwant %+v", got, &want)
		}
	})
}

// BenchmarkClientTraceDecode reads and decodes a real CG store-hit body the
// way Client.Trace does (a read sized from Content-Length, then the
// one-pass decoder) and the way it did before (io.ReadAll, then
// json.Unmarshal of the whole envelope). The traces themselves are decoded
// by AppDataWire.Decode in both cases and are not timed.
func BenchmarkClientTraceDecode(b *testing.B) {
	_, hit := cgBodies(b)
	response := func() *http.Response {
		return &http.Response{Body: io.NopCloser(bytes.NewReader(hit)), ContentLength: int64(len(hit))}
	}
	for _, c := range []struct {
		name   string
		decode func(*http.Response) (*daed.TraceResponse, error)
	}{
		{"one-pass", func(r *http.Response) (*daed.TraceResponse, error) {
			raw, err := daed.ReadBody(r)
			if err != nil {
				return nil, err
			}
			return daed.DecodeTraceResponse(raw)
		}},
		{"encoding-json", func(r *http.Response) (*daed.TraceResponse, error) {
			raw, err := io.ReadAll(io.LimitReader(r.Body, daed.MaxBody))
			if err != nil {
				return nil, err
			}
			var resp daed.TraceResponse
			return &resp, json.Unmarshal(raw, &resp)
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(hit)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(response()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestClientBodyLimit: a 2xx body over the client's limit is an error
// whether or not the server sent its length, and a body at the limit is
// read whole either way.
func TestClientBodyLimit(t *testing.T) {
	// A valid response of exactly n bytes: {"key":"aaa…"}.
	body := func(n int) []byte {
		return []byte(`{"key":"` + strings.Repeat("a", n-len(`{"key":""}`)) + `"}`)
	}
	for _, c := range []struct {
		n      int
		sized  bool
		wantOK bool
	}{
		{daed.MaxBody, true, true},
		{daed.MaxBody, false, true},
		{daed.MaxBody + 1, true, false},
		{daed.MaxBody + 1, false, false},
	} {
		b := body(c.n)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if c.sized {
				w.Header().Set("Content-Length", strconv.Itoa(len(b)))
			}
			w.WriteHeader(http.StatusOK)
			w.Write(b)
		}))
		resp, err := (&daed.Client{Base: ts.URL}).Trace(context.Background(), &daed.TraceRequest{App: "CG"})
		ts.Close()
		what := fmt.Sprintf("%d-byte body (Content-Length sent: %v)", c.n, c.sized)
		switch {
		case c.wantOK && err != nil:
			t.Errorf("%s: %v", what, err)
		case c.wantOK && len(resp.Key) != c.n-len(`{"key":""}`):
			t.Errorf("%s: read a %d-byte key", what, len(resp.Key))
		case !c.wantOK && (err == nil || !strings.Contains(err.Error(), "larger than")):
			t.Errorf("%s: error %v, want the body limit", what, err)
		}
	}
}

// TestClientTraceReusesConnection: a sized read of a store hit leaves the
// connection reusable, so back-to-back trace requests share one.
func TestClientTraceReusesConnection(t *testing.T) {
	w, err := eval.EncodeAppData(&eval.AppData{Name: "tiny",
		CAE: &rt.Trace{Cores: 1}, Manual: &rt.Trace{Cores: 1}, Auto: &rt.Trace{Cores: 1}})
	if err != nil {
		t.Fatal(err)
	}
	art, err := json.Marshal(map[string]any{"data": w})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		rw.Header().Set("Content-Length", strconv.Itoa(len(art)))
		rw.Write(art)
	}))
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &daed.Client{Base: ts.URL, HTTP: &http.Client{Transport: tr}}
	var reused []bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
	})
	for i := 0; i < 3; i++ {
		resp, err := c.Trace(ctx, &daed.TraceRequest{App: "tiny"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resp.Data.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(reused, []bool{false, true, true}) {
		t.Fatalf("connection reuse per request %v, want [false true true]", reused)
	}
}
