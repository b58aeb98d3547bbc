package jsontext

// MaxDepth is encoding/json's nesting limit: a document with more arrays
// and objects open at once is an error there, so Skip refuses it too.
const MaxDepth = 10000

// Skip consumes the JSON value at the cursor, checking that it is
// well-formed by encoding/json's grammar: its string rules (Str), its
// number syntax and its nesting limit. depth is the number of arrays and
// objects that enclose the value. The value's text is B[start:I] for the
// start the caller saw after Space.
func (d *Lexer) Skip(depth int) error {
	// open holds '{' or '[' for each container the value has open.
	var stack [32]byte
	open := stack[:0]
	for {
		// A value: a complete scalar or empty container, or the opening of
		// a container whose first element is next.
		switch c := d.Lookahead(); c {
		case '{', '[':
			if depth+len(open) >= MaxDepth {
				return d.Errorf("exceeded max depth")
			}
			d.I++
			if d.Lookahead() == c+2 { // '}' and ']' follow their openers by 2
				d.I++
				break
			}
			open = append(open, c)
			if c == '{' {
				if err := d.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := d.Str(); err != nil {
				return err
			}
		case 't':
			if !d.Literal("true") {
				return d.Errorf("invalid literal")
			}
		case 'f':
			if !d.Literal("false") {
				return d.Errorf("invalid literal")
			}
		case 'n':
			if !d.Literal("null") {
				return d.Errorf("invalid literal")
			}
		default:
			if err := d.number(); err != nil {
				return err
			}
		}
		// After a value: close containers until one has a next element.
		for {
			if len(open) == 0 {
				return nil
			}
			top := open[len(open)-1]
			c := d.Lookahead()
			if c == ',' {
				d.I++
				if top == '{' {
					if err := d.key(); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				return d.Errorf("expected ',' or %q", top+2)
			}
			d.I++
			open = open[:len(open)-1]
		}
	}
}

// key consumes an object member's key and the ':' after it.
func (d *Lexer) key() error {
	if d.Lookahead() != '"' {
		return d.Errorf("expected an object key")
	}
	if _, err := d.Str(); err != nil {
		return err
	}
	return d.Expect(':')
}

// number consumes a JSON number: an optional minus, an integer part with
// no leading zero, an optional fraction and an optional exponent.
func (d *Lexer) number() error {
	b, i := d.B, d.I
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
	default:
		d.I = i
		return d.Errorf("invalid character in a number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
		if i == start {
			d.I = i
			return d.Errorf("expected a digit in a fraction")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		}
		if i == start {
			d.I = i
			return d.Errorf("expected a digit in an exponent")
		}
	}
	d.I = i
	return nil
}
