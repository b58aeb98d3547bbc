package daed

import (
	"bytes"
	"encoding/json"

	"dae/internal/eval"
	"dae/internal/jsontext"
)

var (
	responseFields = []string{"data", "degraded", "cache_hit", "collapsed", "key", "elapsed_ms"}
	dataFields     = []string{"name", "cae", "manual", "auto", "results"}
)

// decodeTraceResponse decodes a POST /v1/trace response body, or a stored
// trace artifact (the same object without the per-request members), in one
// pass. The three traces are not decoded here: one validating skip finds
// the end of each, and its json.RawMessage is a sub-slice of raw, so the
// response aliases raw. The small members are decoded by encoding/json
// from their own sub-slices, and unknown members are skipped, as
// encoding/json skips them. AppDataWire.Decode still validates the traces
// strictly.
//
// Whatever it accepts, encoding/json accepts and decodes to an equal
// TraceResponse (FuzzDecodeTraceResponse holds it to that). It rejects
// three kinds of input that encoding/json takes and the server never
// writes, each pinned by TestDecodeTraceResponseRejects:
//   - a key repeated in one object (encoding/json keeps the last value);
//   - a key equal to a member's name only under case folding
//     (encoding/json matches keys case-insensitively);
//   - a top-level null (encoding/json decodes it as an empty response).
func decodeTraceResponse(raw []byte) (*TraceResponse, error) {
	d := &responseDecoder{Lexer: jsontext.Lexer{B: raw}}
	resp := &TraceResponse{}
	err := d.object(0, responseFields, func(f int) error {
		switch f {
		case 0:
			if d.Null() {
				return nil
			}
			resp.Data = &eval.AppDataWire{}
			return d.data(resp.Data)
		case 1:
			return d.small(1, &resp.Degraded)
		case 2:
			return d.small(1, &resp.CacheHit)
		case 3:
			return d.small(1, &resp.Collapsed)
		case 4:
			return d.small(1, &resp.Key)
		default:
			return d.small(1, &resp.ElapsedMs)
		}
	})
	if err != nil {
		return nil, err
	}
	d.Space()
	if d.I != len(d.B) {
		return nil, d.Errorf("unexpected data after the response")
	}
	return resp, nil
}

// responseDecoder walks the TraceResponse and AppDataWire objects.
type responseDecoder struct {
	jsontext.Lexer
}

// data decodes the AppDataWire object at the cursor, the response's member.
func (d *responseDecoder) data(w *eval.AppDataWire) error {
	return d.object(1, dataFields, func(f int) error {
		var err error
		switch f {
		case 0:
			return d.small(2, &w.Name)
		case 1:
			w.CAE, err = d.value(2)
		case 2:
			w.Manual, err = d.value(2)
		case 3:
			w.Auto, err = d.value(2)
		default:
			return d.small(2, &w.Results)
		}
		return err
	})
}

// object walks the object at the cursor, which depth containers enclose.
// For each member named in fields it calls member with the name's index,
// the cursor on the value; other members are skipped.
func (d *responseDecoder) object(depth int, fields []string, member func(int) error) error {
	if err := d.Expect('{'); err != nil {
		return err
	}
	if d.Lookahead() == '}' {
		d.I++
		return nil
	}
	var seen uint32
	for {
		if d.Lookahead() != '"' {
			return d.Errorf("expected an object key")
		}
		key, err := d.Str()
		if err != nil {
			return err
		}
		f := -1
		for j, name := range fields {
			if string(key) == name {
				f = j
				break
			}
			if bytes.EqualFold(key, []byte(name)) {
				return d.Errorf("key %q differs from %q only in case", key, name)
			}
		}
		if err := d.Expect(':'); err != nil {
			return err
		}
		switch {
		case f < 0:
			d.Space()
			err = d.Skip(depth + 1)
		case seen&(1<<f) != 0:
			return d.Errorf("repeated key %q", fields[f])
		default:
			seen |= 1 << f
			d.Space()
			err = member(f)
		}
		if err != nil {
			return err
		}
		switch d.Lookahead() {
		case ',':
			d.I++
		case '}':
			d.I++
			return nil
		default:
			return d.Errorf("expected ',' or '}'")
		}
	}
}

// value skips the well-formed value at the cursor, which depth containers
// enclose, and returns its text.
func (d *responseDecoder) value(depth int) (json.RawMessage, error) {
	start := d.I
	if err := d.Skip(depth); err != nil {
		return nil, err
	}
	return d.B[start:d.I:d.I], nil
}

// small decodes the value at the cursor into v with encoding/json.
func (d *responseDecoder) small(depth int, v any) error {
	b, err := d.value(depth)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
