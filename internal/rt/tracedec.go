package rt

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"

	"dae/internal/cpu"
	"dae/internal/interp"
	"dae/internal/mem"
)

// traceDecoder parses SaveTrace's encoding without reflection. It accepts
// the JSON SaveTrace and EncodeTrace write, compact or indented, in either
// trace version, and decodes exactly what encoding/json would decode into a
// traceJSON (the fuzz test holds it to that). It is deliberately stricter
// than encoding/json where the encoder never goes: unknown or duplicated
// keys, keys differing only in case, non-integer numbers, nulls other than
// an absent record list or quarantine set, and mis-sized cache-level
// arrays are errors, so every input it accepts means one thing.
type traceDecoder struct {
	b []byte
	i int
	// scratch holds the unescaped form of a string that needed unescaping.
	scratch []byte
	// names interns record names: a trace repeats a few task names across
	// thousands of records.
	names map[string]string
}

var (
	traceFields  = []string{"version", "workload", "decoupled", "cores", "num_batches", "records", "quarantined"}
	recordFields = []string{"Name", "Core", "Batch", "HasAccess", "AccessWork", "ExecWork", "Degraded", "Failed", "FaultKind"}
	phaseFields  = []string{"Counts", "Mem"}
	countFields  = []string{"Int", "Float", "FloatDiv", "MathOps", "Loads", "Stores", "Prefetches", "Branches", "GEPs", "Calls"}
	statsFields  = []string{"At"}
)

// decodeTraceJSON parses one trace document into its serialized form; the
// caller validates it.
func decodeTraceJSON(b []byte) (*traceJSON, error) {
	d := &traceDecoder{b: b, names: make(map[string]string)}
	var tj traceJSON
	if err := d.trace(&tj); err != nil {
		return nil, err
	}
	d.space()
	if d.i != len(d.b) {
		return nil, d.errorf("unexpected data after the trace")
	}
	return &tj, nil
}

func (d *traceDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (d *traceDecoder) space() {
	b, i := d.b, d.i
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.i = i
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *traceDecoder) peek() byte {
	d.space()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// expect skips whitespace and consumes c.
func (d *traceDecoder) expect(c byte) error {
	if d.peek() != c {
		return d.errorf("expected %q", c)
	}
	d.i++
	return nil
}

// literal consumes lit if the input continues with it.
func (d *traceDecoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one comes next.
func (d *traceDecoder) null() bool {
	d.space()
	return d.literal("null")
}

// object is the parse state of one JSON object with a fixed key set.
type object struct {
	fields []string
	seen   uint32 // bit k: fields[k] has appeared
	last   int    // index of the latest key, -1 before the first
}

// quoted reports whether the input continues with name as a JSON string
// that needs no unescaping.
func (d *traceDecoder) quoted(name string) bool {
	end := d.i + len(name) + 1
	return end < len(d.b) && d.b[end] == '"' && string(d.b[d.i+1:end]) == name
}

// open consumes an object's '{'.
func (d *traceDecoder) open(fields []string) (object, error) {
	return object{fields: fields, last: -1}, d.expect('{')
}

// next advances to the object's next member: it returns the key's index in
// o.fields with the ':' consumed, or -1 after the closing '}'. A repeated
// key is an error. The key after the last match is tried first, so members
// in SaveTrace's order cost one comparison each.
func (d *traceDecoder) next(o *object) (int, error) {
	c := d.peek()
	if o.last >= 0 {
		switch c {
		case '}':
			d.i++
			return -1, nil
		case ',':
			d.i++
			c = d.peek()
		default:
			return 0, d.errorf("expected ',' or '}'")
		}
	} else if c == '}' {
		d.i++
		return -1, nil
	}
	if c != '"' {
		return 0, d.errorf("expected an object key")
	}
	f := o.last + 1
	if f < len(o.fields) && d.quoted(o.fields[f]) {
		d.i += len(o.fields[f]) + 2
	} else {
		key, err := d.str()
		if err != nil {
			return 0, err
		}
		f = -1
		for j, name := range o.fields {
			if string(key) == name {
				f = j
				break
			}
		}
		if f < 0 {
			return 0, d.errorf("unknown key %q", key)
		}
	}
	if o.seen&(1<<f) != 0 {
		return 0, d.errorf("repeated key %q", o.fields[f])
	}
	o.seen |= 1 << f
	o.last = f
	return f, d.expect(':')
}

func (d *traceDecoder) trace(tj *traceJSON) error {
	o, err := d.open(traceFields)
	if err != nil {
		return err
	}
	for {
		f, err := d.next(&o)
		if err != nil || f < 0 {
			return err
		}
		switch f {
		case 0:
			tj.Version, err = d.int()
		case 1:
			tj.Workload, err = d.string()
		case 2:
			tj.Decoupled, err = d.bool()
		case 3:
			tj.Cores, err = d.int()
		case 4:
			tj.NumBatches, err = d.int()
		case 5:
			tj.Records, err = d.records()
		case 6:
			tj.Quarantined, err = d.stringMap()
		}
		if err != nil {
			return err
		}
	}
}

// records parses the record list: null is no list, [] an empty one.
func (d *traceDecoder) records() ([]TaskRecord, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	recs := []TaskRecord{}
	if d.peek() == ']' {
		d.i++
		return recs, nil
	}
	for {
		recs = append(recs, TaskRecord{})
		if err := d.record(&recs[len(recs)-1]); err != nil {
			return nil, err
		}
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return recs, nil
		default:
			return nil, d.errorf("expected ',' or ']'")
		}
	}
}

func (d *traceDecoder) record(r *TaskRecord) error {
	o, err := d.open(recordFields)
	if err != nil {
		return err
	}
	for {
		f, err := d.next(&o)
		if err != nil || f < 0 {
			return err
		}
		switch f {
		case 0:
			r.Name, err = d.name()
		case 1:
			r.Core, err = d.int()
		case 2:
			r.Batch, err = d.int()
		case 3:
			r.HasAccess, err = d.bool()
		case 4:
			err = d.phase(&r.AccessWork)
		case 5:
			err = d.phase(&r.ExecWork)
		case 6:
			r.Degraded, err = d.bool()
		case 7:
			r.Failed, err = d.bool()
		case 8:
			r.FaultKind, err = d.string()
		}
		if err != nil {
			return err
		}
	}
}

func (d *traceDecoder) phase(w *cpu.PhaseWork) error {
	o, err := d.open(phaseFields)
	if err != nil {
		return err
	}
	for {
		f, err := d.next(&o)
		if err != nil || f < 0 {
			return err
		}
		if f == 0 {
			err = d.counts(&w.Counts)
		} else {
			err = d.stats(&w.Mem)
		}
		if err != nil {
			return err
		}
	}
}

func (d *traceDecoder) counts(c *interp.Counts) error {
	dst := [...]*int64{&c.Int, &c.Float, &c.FloatDiv, &c.MathOps, &c.Loads,
		&c.Stores, &c.Prefetches, &c.Branches, &c.GEPs, &c.Calls}
	o, err := d.open(countFields)
	if err != nil {
		return err
	}
	for {
		f, err := d.next(&o)
		if err != nil || f < 0 {
			return err
		}
		if *dst[f], err = d.int64(); err != nil {
			return err
		}
	}
}

func (d *traceDecoder) stats(s *mem.Stats) error {
	o, err := d.open(statsFields)
	if err != nil {
		return err
	}
	for {
		f, err := d.next(&o)
		if err != nil || f < 0 {
			return err
		}
		if err := d.expect('['); err != nil {
			return err
		}
		for k := range s.At {
			if k > 0 {
				if err := d.expect(','); err != nil {
					return err
				}
			}
			if err := d.expect('['); err != nil {
				return err
			}
			for l := range s.At[k] {
				if l > 0 {
					if err := d.expect(','); err != nil {
						return err
					}
				}
				if s.At[k][l], err = d.int64(); err != nil {
					return err
				}
			}
			if err := d.expect(']'); err != nil {
				return err
			}
		}
		if err := d.expect(']'); err != nil {
			return err
		}
	}
}

// stringMap parses the quarantine set: null is no set, {} an empty one.
// A repeated key keeps its last value, as encoding/json does.
func (d *traceDecoder) stringMap() (map[string]string, error) {
	if d.null() {
		return nil, nil
	}
	if err := d.expect('{'); err != nil {
		return nil, err
	}
	m := map[string]string{}
	if d.peek() == '}' {
		d.i++
		return m, nil
	}
	for {
		if d.peek() != '"' {
			return nil, d.errorf("expected an object key")
		}
		k, err := d.string()
		if err != nil {
			return nil, err
		}
		if err := d.expect(':'); err != nil {
			return nil, err
		}
		if m[k], err = d.string(); err != nil {
			return nil, err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return m, nil
		default:
			return nil, d.errorf("expected ',' or '}'")
		}
	}
}

func (d *traceDecoder) bool() (bool, error) {
	d.space()
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errorf("expected a boolean")
}

func (d *traceDecoder) int() (int, error) {
	v, err := d.int64()
	return int(v), err
}

// int64 parses a JSON number that is an integer in int64's range; a
// fraction or exponent is an error, as it is for encoding/json's decode
// into an integer field.
func (d *traceDecoder) int64() (int64, error) {
	d.space()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			d.i = i
			return 0, d.errorf("integer out of range")
		}
		u = u*10 + uint64(b[i]-'0')
	}
	d.i = i
	switch n := i - start; {
	case n == 0:
		return 0, d.errorf("expected an integer")
	case n > 1 && b[start] == '0':
		return 0, d.errorf("integer with a leading zero")
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, d.errorf("expected an integer")
	}
	if neg {
		if u > 1<<63 {
			return 0, d.errorf("integer out of range")
		}
		return -int64(u), nil
	}
	if u > 1<<63-1 {
		return 0, d.errorf("integer out of range")
	}
	return int64(u), nil
}

func (d *traceDecoder) string() (string, error) {
	d.space()
	s, err := d.str()
	return string(s), err
}

// name parses a record name, interned.
func (d *traceDecoder) name() (string, error) {
	d.space()
	s, err := d.str()
	if err != nil {
		return "", err
	}
	if n, ok := d.names[string(s)]; ok {
		return n, nil
	}
	n := string(s)
	d.names[n] = n
	return n, nil
}

// str parses the JSON string at the cursor. The result aliases the input
// when the string needs no unescaping and the scratch buffer otherwise, so
// it is valid until the next call.
func (d *traceDecoder) str() ([]byte, error) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, d.errorf("expected a string")
	}
	b, start := d.b, d.i+1
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return b[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			d.i = i
			return d.unescape(start)
		}
	}
	d.i = len(b)
	return nil, d.errorf("unterminated string")
}

// unescape finishes a string from the first byte str could not take as
// is, the way encoding/json does: escapes are decoded, an unpaired UTF-16
// surrogate and each byte of invalid UTF-8 become U+FFFD, and a control
// character is an error.
func (d *traceDecoder) unescape(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.b[start:d.i]...)
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			d.scratch = out
			return out, nil
		case c < ' ':
			return nil, d.errorf("control character in string")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.b[d.i:])
			out = utf8.AppendRune(out, r)
			d.i += n
		case c != '\\':
			out = append(out, c)
			d.i++
		case d.i+1 >= len(d.b):
			return nil, d.errorf("unterminated string")
		default:
			e := d.b[d.i+1]
			d.i += 2
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := d.hex4(d.i)
				if !ok {
					return nil, d.errorf("invalid \\u escape")
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by an escaped low one
					// is a pair; anything else decodes to U+FFFD and the
					// following escape, if any, stands alone.
					dec := utf8.RuneError
					if d.i+1 < len(d.b) && d.b[d.i] == '\\' && d.b[d.i+1] == 'u' {
						if r2, ok := d.hex4(d.i + 2); ok {
							dec = utf16.DecodeRune(r, r2)
						}
					}
					if dec != utf8.RuneError {
						d.i += 6
					}
					r = dec
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.errorf("invalid escape")
			}
		}
	}
	return nil, d.errorf("unterminated string")
}

// hex4 parses the four hex digits of a \u escape starting at b[at].
func (d *traceDecoder) hex4(at int) (rune, bool) {
	if len(d.b)-at < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.b[at : at+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
