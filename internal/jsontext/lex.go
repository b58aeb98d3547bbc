// Package jsontext holds the JSON text primitives the repository's
// hand-written decoders share: a lexer with encoding/json's string rules
// and a validating skip over a whole value. Decoders build on the Lexer so
// that there is one implementation of JSON strings, whitespace and
// numbers, held to encoding/json by the decoders' differential fuzz tests.
package jsontext

import (
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// Lexer is a cursor over one JSON document. Decoders embed it and drive
// it token by token; B is the document and I the offset of the next
// unread byte.
type Lexer struct {
	B []byte
	I int
	// scratch holds the unescaped form of a string that needed unescaping.
	scratch []byte
}

// Errorf returns an error naming the cursor's offset.
func (d *Lexer) Errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.I, fmt.Sprintf(format, args...))
}

// Space skips JSON whitespace.
func (d *Lexer) Space() {
	b, i := d.B, d.I
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.I = i
}

// Lookahead skips whitespace and returns the next byte, or 0 at the end.
func (d *Lexer) Lookahead() byte {
	d.Space()
	if d.I < len(d.B) {
		return d.B[d.I]
	}
	return 0
}

// Expect skips whitespace and consumes c.
func (d *Lexer) Expect(c byte) error {
	if d.Lookahead() != c {
		return d.Errorf("expected %q", c)
	}
	d.I++
	return nil
}

// Literal consumes lit if the input continues with it.
func (d *Lexer) Literal(lit string) bool {
	if len(d.B)-d.I >= len(lit) && string(d.B[d.I:d.I+len(lit)]) == lit {
		d.I += len(lit)
		return true
	}
	return false
}

// Null consumes a null literal if one comes next.
func (d *Lexer) Null() bool {
	d.Space()
	return d.Literal("null")
}

// Quoted reports whether the input continues with name as a JSON string
// that needs no unescaping.
func (d *Lexer) Quoted(name string) bool {
	end := d.I + len(name) + 1
	return end < len(d.B) && d.B[end] == '"' && string(d.B[d.I+1:end]) == name
}

// Bool parses a JSON boolean.
func (d *Lexer) Bool() (bool, error) {
	d.Space()
	switch {
	case d.Literal("true"):
		return true, nil
	case d.Literal("false"):
		return false, nil
	}
	return false, d.Errorf("expected a boolean")
}

// Int64 parses a JSON number that is an integer in int64's range; a
// fraction or exponent is an error, as it is for encoding/json's decode
// into an integer field.
func (d *Lexer) Int64() (int64, error) {
	d.Space()
	b, i := d.B, d.I
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > (1<<63)/10 {
			d.I = i
			return 0, d.Errorf("integer out of range")
		}
		u = u*10 + uint64(b[i]-'0')
	}
	d.I = i
	switch n := i - start; {
	case n == 0:
		return 0, d.Errorf("expected an integer")
	case n > 1 && b[start] == '0':
		return 0, d.Errorf("integer with a leading zero")
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, d.Errorf("expected an integer")
	}
	if neg {
		if u > 1<<63 {
			return 0, d.Errorf("integer out of range")
		}
		return -int64(u), nil
	}
	if u > 1<<63-1 {
		return 0, d.Errorf("integer out of range")
	}
	return int64(u), nil
}

// StringValue parses a JSON string into a Go string.
func (d *Lexer) StringValue() (string, error) {
	d.Space()
	s, err := d.Str()
	return string(s), err
}

// Str parses the JSON string at the cursor. The result aliases the input
// when the string needs no unescaping and the scratch buffer otherwise, so
// it is valid until the next call.
func (d *Lexer) Str() ([]byte, error) {
	if d.I >= len(d.B) || d.B[d.I] != '"' {
		return nil, d.Errorf("expected a string")
	}
	b, start := d.B, d.I+1
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.I = i + 1
			return b[start:i], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			d.I = i
			return d.unescape(start)
		}
	}
	d.I = len(b)
	return nil, d.Errorf("unterminated string")
}

// unescape finishes a string from the first byte Str could not take as
// is, the way encoding/json does: escapes are decoded, an unpaired UTF-16
// surrogate and each byte of invalid UTF-8 become U+FFFD, and a control
// character is an error.
func (d *Lexer) unescape(start int) ([]byte, error) {
	out := append(d.scratch[:0], d.B[start:d.I]...)
	for d.I < len(d.B) {
		c := d.B[d.I]
		switch {
		case c == '"':
			d.I++
			d.scratch = out
			return out, nil
		case c < ' ':
			return nil, d.Errorf("control character in string")
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.B[d.I:])
			out = utf8.AppendRune(out, r)
			d.I += n
		case c != '\\':
			out = append(out, c)
			d.I++
		case d.I+1 >= len(d.B):
			return nil, d.Errorf("unterminated string")
		default:
			e := d.B[d.I+1]
			d.I += 2
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
				r, ok := d.hex4(d.I)
				if !ok {
					return nil, d.Errorf("invalid \\u escape")
				}
				d.I += 4
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by an escaped low one
					// is a pair; anything else decodes to U+FFFD and the
					// following escape, if any, stands alone.
					dec := utf8.RuneError
					if d.I+1 < len(d.B) && d.B[d.I] == '\\' && d.B[d.I+1] == 'u' {
						if r2, ok := d.hex4(d.I + 2); ok {
							dec = utf16.DecodeRune(r, r2)
						}
					}
					if dec != utf8.RuneError {
						d.I += 6
					}
					r = dec
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, d.Errorf("invalid escape")
			}
		}
	}
	return nil, d.Errorf("unterminated string")
}

// hex4 parses the four hex digits of a \u escape starting at B[at].
func (d *Lexer) hex4(at int) (rune, bool) {
	if len(d.B)-at < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.B[at : at+4] {
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
