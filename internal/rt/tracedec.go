package rt

import (
	"dae/internal/cpu"
	"dae/internal/interp"
	"dae/internal/jsontext"
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
	jsontext.Lexer
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
	d := &traceDecoder{Lexer: jsontext.Lexer{B: b}, names: make(map[string]string)}
	var tj traceJSON
	if err := d.trace(&tj); err != nil {
		return nil, err
	}
	d.Space()
	if d.I != len(d.B) {
		return nil, d.Errorf("unexpected data after the trace")
	}
	return &tj, nil
}

// object is the parse state of one JSON object with a fixed key set.
type object struct {
	fields []string
	seen   uint32 // bit k: fields[k] has appeared
	last   int    // index of the latest key, -1 before the first
}

// open consumes an object's '{'.
func (d *traceDecoder) open(fields []string) (object, error) {
	return object{fields: fields, last: -1}, d.Expect('{')
}

// next advances to the object's next member: it returns the key's index in
// o.fields with the ':' consumed, or -1 after the closing '}'. A repeated
// key is an error. The key after the last match is tried first, so members
// in SaveTrace's order cost one comparison each.
func (d *traceDecoder) next(o *object) (int, error) {
	c := d.Lookahead()
	if o.last >= 0 {
		switch c {
		case '}':
			d.I++
			return -1, nil
		case ',':
			d.I++
			c = d.Lookahead()
		default:
			return 0, d.Errorf("expected ',' or '}'")
		}
	} else if c == '}' {
		d.I++
		return -1, nil
	}
	if c != '"' {
		return 0, d.Errorf("expected an object key")
	}
	f := o.last + 1
	if f < len(o.fields) && d.Quoted(o.fields[f]) {
		d.I += len(o.fields[f]) + 2
	} else {
		key, err := d.Str()
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
			return 0, d.Errorf("unknown key %q", key)
		}
	}
	if o.seen&(1<<f) != 0 {
		return 0, d.Errorf("repeated key %q", o.fields[f])
	}
	o.seen |= 1 << f
	o.last = f
	return f, d.Expect(':')
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
			tj.Workload, err = d.StringValue()
		case 2:
			tj.Decoupled, err = d.Bool()
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
	if d.Null() {
		return nil, nil
	}
	if err := d.Expect('['); err != nil {
		return nil, err
	}
	recs := []TaskRecord{}
	if d.Lookahead() == ']' {
		d.I++
		return recs, nil
	}
	for {
		recs = append(recs, TaskRecord{})
		if err := d.record(&recs[len(recs)-1]); err != nil {
			return nil, err
		}
		switch d.Lookahead() {
		case ',':
			d.I++
		case ']':
			d.I++
			return recs, nil
		default:
			return nil, d.Errorf("expected ',' or ']'")
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
			r.HasAccess, err = d.Bool()
		case 4:
			err = d.phase(&r.AccessWork)
		case 5:
			err = d.phase(&r.ExecWork)
		case 6:
			r.Degraded, err = d.Bool()
		case 7:
			r.Failed, err = d.Bool()
		case 8:
			r.FaultKind, err = d.StringValue()
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
		if *dst[f], err = d.Int64(); err != nil {
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
		if err := d.Expect('['); err != nil {
			return err
		}
		for k := range s.At {
			if k > 0 {
				if err := d.Expect(','); err != nil {
					return err
				}
			}
			if err := d.Expect('['); err != nil {
				return err
			}
			for l := range s.At[k] {
				if l > 0 {
					if err := d.Expect(','); err != nil {
						return err
					}
				}
				if s.At[k][l], err = d.Int64(); err != nil {
					return err
				}
			}
			if err := d.Expect(']'); err != nil {
				return err
			}
		}
		if err := d.Expect(']'); err != nil {
			return err
		}
	}
}

// stringMap parses the quarantine set: null is no set, {} an empty one.
// A repeated key keeps its last value, as encoding/json does.
func (d *traceDecoder) stringMap() (map[string]string, error) {
	if d.Null() {
		return nil, nil
	}
	if err := d.Expect('{'); err != nil {
		return nil, err
	}
	m := map[string]string{}
	if d.Lookahead() == '}' {
		d.I++
		return m, nil
	}
	for {
		if d.Lookahead() != '"' {
			return nil, d.Errorf("expected an object key")
		}
		k, err := d.StringValue()
		if err != nil {
			return nil, err
		}
		if err := d.Expect(':'); err != nil {
			return nil, err
		}
		if m[k], err = d.StringValue(); err != nil {
			return nil, err
		}
		switch d.Lookahead() {
		case ',':
			d.I++
		case '}':
			d.I++
			return m, nil
		default:
			return nil, d.Errorf("expected ',' or '}'")
		}
	}
}

func (d *traceDecoder) int() (int, error) {
	v, err := d.Int64()
	return int(v), err
}

// name parses a record name, interned.
func (d *traceDecoder) name() (string, error) {
	d.Space()
	s, err := d.Str()
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
