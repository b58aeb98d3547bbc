package rt

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dae/internal/cpu"
)

// oracleDecodeTrace is the reflection decode DecodeTrace replaced:
// encoding/json into traceJSON, then the same validation.
func oracleDecodeTrace(b []byte) (*Trace, error) {
	var tj traceJSON
	if err := json.Unmarshal(b, &tj); err != nil {
		return nil, err
	}
	return tj.trace()
}

// syntheticTrace is a deterministic trace of n records with every field in
// use: mixed magnitudes, supervision flags, names needing escapes and a
// quarantine set.
func syntheticTrace(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"spmv", "axpy<&>", "dot\u2028x", "\"q\"\\é"}
	tr := &Trace{Workload: "synthetic <CG> & co", Decoupled: true, Cores: 4, NumBatches: n/8 + 1,
		Quarantined: map[string]string{"axpy<&>": "trap", "spmv": "budget"}}
	work := func() cpu.PhaseWork {
		var w cpu.PhaseWork
		w.Counts.Int = rng.Int63n(1 << 20)
		w.Counts.Float = rng.Int63n(1 << 16)
		w.Counts.Loads = rng.Int63()
		w.Counts.Stores = rng.Int63n(100)
		w.Counts.Calls = -rng.Int63n(3)
		for k := range w.Mem.At {
			for l := range w.Mem.At[k] {
				w.Mem.At[k][l] = rng.Int63n(1 << uint(4*l+4))
			}
		}
		return w
	}
	for i := 0; i < n; i++ {
		r := TaskRecord{Name: names[i%len(names)], Core: i % 4, Batch: i / 8, ExecWork: work()}
		if i%3 != 0 {
			r.HasAccess, r.AccessWork = true, work()
		}
		if i%11 == 5 {
			r.Degraded, r.FaultKind = true, "trap"
		}
		if i%13 == 7 {
			r.Failed, r.FaultKind = true, "panic"
		}
		tr.Records = append(tr.Records, r)
	}
	return tr
}

// encodeV1 writes tr the way trace version 1 did: no supervision fields.
func encodeV1(t testing.TB, tr *Trace) []byte {
	t.Helper()
	type recordV1 struct {
		Name       string
		Core       int
		Batch      int
		HasAccess  bool
		AccessWork cpu.PhaseWork
		ExecWork   cpu.PhaseWork
	}
	recs := make([]recordV1, len(tr.Records))
	for i, r := range tr.Records {
		recs[i] = recordV1{r.Name, r.Core, r.Batch, r.HasAccess, r.AccessWork, r.ExecWork}
	}
	b, err := json.Marshal(map[string]any{
		"version": 1, "workload": tr.Workload, "decoupled": tr.Decoupled,
		"cores": tr.Cores, "num_batches": tr.NumBatches, "records": recs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// traceSamples are SaveTrace outputs in every shape the decoder must take:
// a simulated run, a synthetic supervised trace, its version-1 form,
// compact and indented forms, and the edge cases of the record list.
func traceSamples(t testing.TB) [][]byte {
	t.Helper()
	w, _ := buildStream(t, 1024, 128)
	run, err := Run(w, DefaultTraceConfig())
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, tr := range []*Trace{
		run,
		syntheticTrace(3, 1),
		{Workload: "empty", Cores: 1, Records: []TaskRecord{}, Quarantined: map[string]string{}},
		{Workload: "nil", Cores: 2},
	} {
		b, err := EncodeTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, b); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&indented, b, "", "\t"); err != nil {
			t.Fatal(err)
		}
		out = append(out, b, compact.Bytes(), indented.Bytes())
	}
	return append(out, encodeV1(t, run), encodeV1(t, syntheticTrace(2, 2)))
}

func TestDecodeTraceMatchesEncodingJSON(t *testing.T) {
	for i, b := range traceSamples(t) {
		got, err := DecodeTrace(b)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		want, err := oracleDecodeTrace(b)
		if err != nil {
			t.Fatalf("sample %d: oracle: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sample %d: decoded trace differs from encoding/json's", i)
		}
	}
}

// TestDecodeTraceRoundTrip: every supervision field and escaped string
// survives EncodeTrace then DecodeTrace, and re-encoding is byte-identical.
func TestDecodeTraceRoundTrip(t *testing.T) {
	tr := syntheticTrace(200, 3)
	b, err := EncodeTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`\u003c`)) || !bytes.Contains(b, []byte(`\u2028`)) {
		t.Fatal("sample does not exercise escaped strings")
	}
	got, err := DecodeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("round trip changed the trace")
	}
	again, err := EncodeTrace(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("re-encoding a decoded trace changed its bytes")
	}
}

func TestDecodeTraceStrings(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`"plain"`, "plain"},
		{`"\u003c\u003e\u0026"`, "<>&"},
		{`"a\"b\\c\/d\b\f\n\r\t"`, "a\"b\\c/d\b\f\n\r\t"},
		{`"\u00e9\u2028"`, "é\u2028"},
		{`"\ud83d\ude00"`, "😀"},
		{`"\ud83d"`, "\ufffd"},
		{`"\ud83d\u0041"`, "\ufffdA"},
		{`"\ude00x"`, "\ufffdx"},
		{"\"bad\xffutf8\"", "bad\ufffdutf8"},
		{"\"é\"", "é"},
	} {
		doc := `{"version":2,"workload":` + c.in + `,"cores":1,"num_batches":0,"records":null}`
		got, err := DecodeTrace([]byte(doc))
		if err != nil {
			t.Errorf("%s: %v", c.in, err)
			continue
		}
		if got.Workload != c.want {
			t.Errorf("%s: decoded %q, want %q", c.in, got.Workload, c.want)
		}
		if want, err := oracleDecodeTrace([]byte(doc)); err != nil || want.Workload != c.want {
			t.Errorf("%s: encoding/json decodes %q (%v)", c.in, want.Workload, err)
		}
	}
}

func TestDecodeTraceRejects(t *testing.T) {
	base := `{"version":2,"workload":"w","cores":1,"num_batches":1,"records":[{"Name":"a","Core":0,"Batch":0}]}`
	for _, c := range []struct{ name, in, msg string }{
		{"empty", ``, "decoding trace"},
		{"truncated", `{`, "decoding trace"},
		{"trailing data", base + `{}`, "after the trace"},
		{"unknown key", strings.Replace(base, `"workload"`, `"Workload"`, 1), "unknown key"},
		{"repeated key", strings.Replace(base, `"cores":1`, `"cores":1,"cores":1`, 1), "repeated key"},
		{"fraction", strings.Replace(base, `"cores":1`, `"cores":1.0`, 1), "integer"},
		{"exponent", strings.Replace(base, `"cores":1`, `"cores":1e0`, 1), "integer"},
		{"leading zero", strings.Replace(base, `"cores":1`, `"cores":01`, 1), "leading zero"},
		{"overflow", strings.Replace(base, `"cores":1`, `"cores":9223372036854775808`, 1), "out of range"},
		{"null scalar", strings.Replace(base, `"cores":1`, `"cores":null`, 1), "integer"},
		{"control character", strings.Replace(base, `"w"`, "\"a\tb\"", 1), "control character"},
		{"bad escape", strings.Replace(base, `"w"`, `"\x"`, 1), "invalid escape"},
		{"short array", strings.Replace(base, `"Batch":0`, `"Batch":0,"ExecWork":{"Mem":{"At":[[1,2,3,4]]}}`, 1), "expected ','"},
		{"missing comma", strings.Replace(base, `,"cores"`, ` "cores"`, 1), "expected ','"},
		{"version", strings.Replace(base, `"version":2`, `"version":3`, 1), "unsupported trace version 3"},
		{"version zero", strings.Replace(base, `"version":2,`, ``, 1), "unsupported trace version 0"},
		{"cores", strings.Replace(base, `"cores":1`, `"cores":0`, 1), "invalid core count 0"},
		{"record core", strings.Replace(base, `"Core":0`, `"Core":1`, 1), "record 0 has core 1 outside [0,1)"},
		{"record batch", strings.Replace(base, `"Batch":0`, `"Batch":-1`, 1), "record 0 has batch -1 outside [0,1)"},
	} {
		if _, err := DecodeTrace([]byte(base)); err != nil {
			t.Fatalf("base document rejected: %v", err)
		}
		_, err := DecodeTrace([]byte(c.in))
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.msg)
		}
	}
}

// FuzzDecodeTrace holds the hand-written decoder to encoding/json: any
// input it accepts, encoding/json accepts with an identical trace, and it
// accepts every SaveTrace output.
func FuzzDecodeTrace(f *testing.F) {
	for _, b := range traceSamples(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeTrace(b)
		if err != nil {
			return
		}
		want, oerr := oracleDecodeTrace(b)
		if oerr != nil {
			t.Fatalf("decoder accepted input encoding/json rejects (%v)", oerr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded trace differs from encoding/json's:\n%+v\n%+v", got, want)
		}
		enc, err := EncodeTrace(got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("SaveTrace output rejected: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatal("SaveTrace output decodes to a different trace")
		}
	})
}

// BenchmarkDecodeTrace decodes a ~600 KB trace (the size of a large app's
// compiler-DAE trace) with the hand-written decoder and with encoding/json.
func BenchmarkDecodeTrace(b *testing.B) {
	enc, err := EncodeTrace(syntheticTrace(1500, 4))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) (*Trace, error)
	}{{"handwritten", DecodeTrace}, {"encoding-json", oracleDecodeTrace}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
