package jsontext

import (
	"encoding/json"
	"strings"
	"testing"
)

// skipValid reports whether Skip takes b as one whole value.
func skipValid(b []byte) bool {
	d := &Lexer{B: b}
	if d.Skip(0) != nil {
		return false
	}
	d.Space()
	return d.I == len(d.B)
}

var skipSamples = []string{
	`0`, `-0`, `12`, `-3.25`, `1e9`, `2.5E+3`, `0.5e-1`, `1E0`,
	`01`, `-`, `+1`, `1.`, `.5`, `1e`, `1e+`, `0x10`, `1.5.2`, `--1`, `-a`,
	`true`, `false`, `null`, `tru`, `nul`, `True`, `truex`,
	`""`, `"a\"b\\c\/d\b\f\n\r\t"`, `"é😀\ud800"`, `"\x"`, `"\u12g4"`, `"a` + "\x01" + `"`, "\"\xff\xfe\"", `"abc`,
	`[]`, `[ ]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[[[]],[{}]]`, `[`, `]`,
	`{}`, `{ }`, `{"a":1}`, `{"a":1,"b":[true,{"c":null}]}`, `{"a" 1}`, `{"a":}`, `{a:1}`, `{"a":1,}`, `{,}`, `{"a":1`, `{"a":[}`, `{"a":1]`, `[1}`,
	" \t\r\n[ 1 ,\n{ \"a\" : \"b\" } ] \n", ``, ` `, `1 2`, `{} {}`,
}

// TestSkipMatchesEncodingJSON: Skip takes exactly the values encoding/json
// calls valid.
func TestSkipMatchesEncodingJSON(t *testing.T) {
	for _, s := range skipSamples {
		if got, want := skipValid([]byte(s)), json.Valid([]byte(s)); got != want {
			t.Errorf("%q: Skip takes it %v, encoding/json %v", s, got, want)
		}
	}
}

// TestSkipDepthLimit: Skip refuses exactly the nesting encoding/json
// refuses, counting the containers around the value.
func TestSkipDepthLimit(t *testing.T) {
	nested := func(n int) []byte { return []byte(strings.Repeat("[", n) + strings.Repeat("]", n)) }
	for _, c := range []struct {
		depth, n int
		want     bool
	}{{0, MaxDepth, true}, {0, MaxDepth + 1, false}, {2, MaxDepth - 2, true}, {2, MaxDepth - 1, false}} {
		d := &Lexer{B: nested(c.n)}
		if err := d.Skip(c.depth); (err == nil) != c.want {
			t.Errorf("%d arrays inside %d containers: error %v, want accepted=%v", c.n, c.depth, err, c.want)
		}
	}
	if !json.Valid(nested(MaxDepth)) || json.Valid(nested(MaxDepth+1)) {
		t.Fatal("encoding/json's nesting limit is not MaxDepth")
	}
}

// FuzzSkip holds Skip to encoding/json's notion of a valid value.
func FuzzSkip(f *testing.F) {
	for _, s := range skipSamples {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := skipValid(b), json.Valid(b); got != want {
			t.Fatalf("%q: Skip takes it %v, encoding/json %v", b, got, want)
		}
	})
}
