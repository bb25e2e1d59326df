package wirejson

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Append appends to dst the bytes json.Marshal(v) returns and returns
// the extended slice. What the plan does not write itself — a NaN or
// infinite float, which json.Marshal refuses, or nesting deeper than
// json.Marshal's cycle check reaches — goes to json.Marshal, so the
// bytes, or the error, are always json.Marshal's. On error Append
// returns dst as given.
func (p *Plan[T]) Append(dst []byte, v *T) ([]byte, error) {
	if v == nil {
		return append(dst, "null"...), nil
	}
	if b, ok := p.root.append(dst, reflect.ValueOf(v).Elem(), 0); ok {
		return b, nil
	}
	// Marshal a copy, so that v does not escape on the path every
	// encodable value takes.
	data, err := json.Marshal(*v)
	if err != nil {
		return dst, err
	}
	return append(dst, data...), nil
}

// maxDepth is how many slices and pointers deep the plan writes a value
// itself; json.Marshal starts looking for cycles past the same depth.
const maxDepth = 1000

// append writes v as json.Marshal does and reports whether it could:
// false on a NaN or infinite float, or past maxDepth.
func (n *node) append(b []byte, v reflect.Value, depth int) ([]byte, bool) {
	ok := true
	switch n.kind {
	case kindBool:
		b = strconv.AppendBool(b, v.Bool())
	case kindInt:
		b = strconv.AppendInt(b, v.Int(), 10)
	case kindUint:
		b = strconv.AppendUint(b, v.Uint(), 10)
	case kindFloat:
		b, ok = appendFloat(b, v.Float(), n.bits)
	case kindString:
		b = appendString(b, v.String())
	case kindStruct:
		b = append(b, '{')
		for i := range n.fields {
			f := &n.fields[i]
			if b, ok = f.node.append(append(b, f.key...), v.Field(f.index), depth); !ok {
				return b, false
			}
		}
		b = append(b, '}')
	case kindSlice:
		switch {
		case v.IsNil():
			b = append(b, "null"...)
		case depth == maxDepth:
			return b, false
		default:
			b = append(b, '[')
			for i := 0; i < v.Len(); i++ {
				if i > 0 {
					b = append(b, ',')
				}
				if b, ok = n.elem.append(b, v.Index(i), depth+1); !ok {
					return b, false
				}
			}
			b = append(b, ']')
		}
	case kindPointer:
		switch {
		case v.IsNil():
			b = append(b, "null"...)
		case depth == maxDepth:
			return b, false
		default:
			b, ok = n.elem.append(b, v.Elem(), depth+1)
		}
	}
	return b, ok
}

// appendFloat writes f as json.Marshal does, in ES6 style: decimal, or
// with an exponent (its leading zero dropped) below 1e-6 and from 1e21,
// compared at the float's own size. It reports false on NaN and ±Inf.
func appendFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 becomes e-7
		b = b[:n-1]
	}
	return b, true
}

// appendString writes s quoted, as json.Marshal does: <, > and & escaped
// for HTML, U+2028 and U+2029 escaped, invalid UTF-8 as \ufffd, the
// short escapes for \b \f \n \r \t, and \u00XX for every other control
// character.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0 // s[start:i] is plain and not yet written
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
