// Package wirejson reads and writes the compact JSON the stack uses for
// its wire types — /v1/run request bodies and results, store envelopes,
// fleet claims, and the machine configuration sim.Key hashes — without
// encoding/json's reflective codec, and with exactly its outcome.
//
// For[T] builds a plan for T once, by reflection. The plan's Unmarshal
// walks the one layout json.Marshal writes for T: compact, every field
// present in declaration order under its exact name, plus the trailing
// newline a json.Encoder adds. Any other input — whitespace, fields out
// of order, missing, repeated or case-folded, a number that does not
// fit its field, null where Marshal writes none, a surrogate escape,
// invalid JSON — is handed, untouched, to json.Unmarshal. So Unmarshal
// returns what json.Unmarshal returns for every input: the same error
// and the same decoded value.
//
// The plan's Append writes that layout: the bytes json.Marshal returns,
// with its escaping of strings and its formatting of floats. A value it
// does not write itself — a NaN or infinite float, or nesting past
// json.Marshal's cycle check — is handed to json.Marshal, so Append
// returns json.Marshal's bytes or error for every value.
//
// encoding/json is thus both the fallback and the reference the tests
// compare against; the plan only has to be fast on what the stack
// itself reads and writes.
package wirejson

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Plan decodes and encodes one wire type. Build it once with For, in a
// package-level variable; it is safe for concurrent use.
type Plan[T any] struct {
	root *node
}

// For builds the plan for T, a struct. It panics on a type the plan
// cannot walk — a map, an interface, an array, a []byte, a json.Number,
// an embedded field, a json tag option such as omitempty or string, a
// tag name outside [A-Za-z0-9_], or a type with its own JSON or text
// marshaling — so a wire type can never drop to encoding/json on every
// value without notice: the package-level variable panics at start-up.
func For[T any]() *Plan[T] {
	t := reflect.TypeFor[T]()
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wirejson: %s is not a struct", t))
	}
	pl := planner{nodes: map[reflect.Type]*node{}}
	return &Plan[T]{root: pl.node(t)}
}

// Unmarshal decodes data into *v and returns what json.Unmarshal(data, v)
// returns. Where json.Unmarshal would reuse a slice or a pointee *v
// already holds, the fast path allocates a fresh one; the decoded value
// is the same.
func (p *Plan[T]) Unmarshal(data []byte, v *T) error {
	if v == nil {
		return json.Unmarshal(data, v)
	}
	saved := *v
	if p.decode(data, v) {
		return nil
	}
	*v = saved
	return json.Unmarshal(data, v)
}

// Fast reports whether data is in the layout json.Marshal writes for T,
// which Unmarshal decodes without encoding/json. Tests use it to pin
// that the stack's own encodings never take the fallback.
func (p *Plan[T]) Fast(data []byte) bool {
	var v T
	return p.decode(data, &v)
}

// decode is the fast path. It reports false, leaving *v partly written,
// on the first byte that leaves the layout json.Marshal writes; it never
// writes into a slice or pointee *v held before the call.
func (p *Plan[T]) decode(data []byte, v *T) bool {
	d := decoder{data: data}
	if !d.value(p.root, reflect.ValueOf(v).Elem()) {
		return false
	}
	return d.pos == len(data) || d.pos == len(data)-1 && data[d.pos] == '\n'
}

// kind is how a node's value is written.
type kind uint8

const (
	kindBool kind = iota
	kindInt
	kindUint
	kindFloat
	kindString
	kindStruct
	kindSlice
	kindPointer
)

// node is the plan for one type.
type node struct {
	kind   kind
	typ    reflect.Type
	bits   int     // numbers: the size json.Unmarshal checks overflow against
	fields []field // structs: the fields json.Marshal writes, in order
	elem   *node   // slices and pointers
}

// field is one struct field: its index and the bytes json.Marshal writes
// before its value.
type field struct {
	index int
	key   string // `"name":`, after a comma on every field but the first
	node  *node
}

// planner makes the nodes of one plan, one per type, so a type used in
// several places (or recursively) shares its node.
type planner struct {
	nodes map[reflect.Type]*node
}

func (pl *planner) node(t reflect.Type) *node {
	if n, ok := pl.nodes[t]; ok {
		return n
	}
	for _, m := range []reflect.Type{
		reflect.TypeFor[json.Marshaler](), reflect.TypeFor[json.Unmarshaler](),
		reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
	} {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			panic(fmt.Sprintf("wirejson: %s implements %s", t, m))
		}
	}
	n := &node{typ: t}
	pl.nodes[t] = n
	switch t.Kind() {
	case reflect.Bool:
		n.kind = kindBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n.kind, n.bits = kindInt, t.Bits()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n.kind, n.bits = kindUint, t.Bits()
	case reflect.Float32, reflect.Float64:
		n.kind, n.bits = kindFloat, t.Bits()
	case reflect.String:
		if t == reflect.TypeFor[json.Number]() {
			panic(fmt.Sprintf("wirejson: %s encodes as a bare number", t))
		}
		n.kind = kindString
	case reflect.Struct:
		n.kind = kindStruct
		pl.fields(n)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			panic(fmt.Sprintf("wirejson: %s encodes as base64", t))
		}
		n.kind, n.elem = kindSlice, pl.node(t.Elem())
	case reflect.Pointer:
		n.kind, n.elem = kindPointer, pl.node(t.Elem())
	default:
		panic(fmt.Sprintf("wirejson: cannot walk %s (%s)", t, t.Kind()))
	}
	return n
}

// fields fills a struct node with the fields json.Marshal writes, under
// the names it writes them.
func (pl *planner) fields(n *node) {
	t := n.typ
	seen := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			panic(fmt.Sprintf("wirejson: %s embeds %s", t, sf.Type))
		}
		if !sf.IsExported() {
			continue
		}
		name := sf.Tag.Get("json")
		if name == "-" {
			continue
		}
		if strings.Contains(name, ",") {
			panic(fmt.Sprintf("wirejson: %s.%s has tag option %q", t, sf.Name, name))
		}
		if name == "" {
			name = sf.Name
		} else if strings.TrimLeft(name, "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_") != "" {
			panic(fmt.Sprintf("wirejson: %s.%s has tag name %q", t, sf.Name, name))
		}
		if seen[name] {
			panic(fmt.Sprintf("wirejson: %s has two fields named %q", t, name))
		}
		seen[name] = true
		key, err := json.Marshal(name)
		if err != nil {
			panic(err)
		}
		prefix := ""
		if len(n.fields) > 0 {
			prefix = ","
		}
		n.fields = append(n.fields, field{index: i, key: prefix + string(key) + ":", node: pl.node(sf.Type)})
	}
}

// decoder walks one input.
type decoder struct {
	data []byte
	pos  int
}

// value decodes the value at d.pos into v and reports whether it was in
// the layout json.Marshal writes for n.
func (d *decoder) value(n *node, v reflect.Value) bool {
	switch n.kind {
	case kindBool:
		switch {
		case d.literal("true"):
			v.SetBool(true)
		case d.literal("false"):
			v.SetBool(false)
		default:
			return false
		}
	case kindInt:
		x, ok := d.signed(n.bits)
		if !ok {
			return false
		}
		v.SetInt(x)
	case kindUint:
		x, neg, ok := d.integer()
		if !ok || neg || n.bits < 64 && x>>n.bits != 0 {
			return false
		}
		v.SetUint(x)
	case kindFloat:
		lit, ok := d.number()
		if !ok {
			return false
		}
		x, err := strconv.ParseFloat(string(lit), n.bits)
		if err != nil {
			return false
		}
		v.SetFloat(x)
	case kindString:
		s, ok := d.string()
		if !ok {
			return false
		}
		v.SetString(s)
	case kindStruct:
		if !d.literal("{") {
			return false
		}
		for i := range n.fields {
			f := &n.fields[i]
			if !d.literal(f.key) || !d.value(f.node, v.Field(f.index)) {
				return false
			}
		}
		return d.literal("}")
	case kindSlice:
		if d.literal("null") {
			v.SetZero()
			return true
		}
		if !d.literal("[") {
			return false
		}
		v.Set(reflect.MakeSlice(n.typ, 0, 0))
		if d.literal("]") {
			return true
		}
		for i := 0; ; i++ {
			v.Grow(1)
			v.SetLen(i + 1)
			if !d.value(n.elem, v.Index(i)) {
				return false
			}
			if !d.literal(",") {
				return d.literal("]")
			}
		}
	case kindPointer:
		if d.literal("null") {
			v.SetZero()
			return true
		}
		p := reflect.New(n.typ.Elem())
		if !d.value(n.elem, p.Elem()) {
			return false
		}
		v.Set(p)
	}
	return true
}

// literal consumes s if the input continues with it.
func (d *decoder) literal(s string) bool {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// number consumes a JSON number and returns its bytes.
func (d *decoder) number() ([]byte, bool) {
	start := d.pos
	d.skip('-')
	switch {
	case d.skip('0'):
	case d.digits() == 0:
		return nil, false
	}
	if d.skip('.') && d.digits() == 0 {
		return nil, false
	}
	if d.skip('e') || d.skip('E') {
		if !d.skip('+') {
			d.skip('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.data[start:d.pos], true
}

// skip consumes c if the input continues with it.
func (d *decoder) skip(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// integer consumes a JSON number with no fraction or exponent that fits
// in 64 bits of magnitude, and returns its magnitude and sign.
func (d *decoder) integer() (x uint64, neg bool, ok bool) {
	i := d.pos
	if i < len(d.data) && d.data[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
		hi, lo := bits.Mul64(x, 10)
		var carry uint64
		x, carry = bits.Add64(lo, uint64(d.data[i]-'0'), 0)
		if hi|carry != 0 {
			return 0, false, false
		}
	}
	switch {
	case i == start, i-start > 1 && d.data[start] == '0':
		return 0, false, false
	case i < len(d.data) && (d.data[i] == '.' || d.data[i] == 'e' || d.data[i] == 'E'):
		return 0, false, false
	}
	d.pos = i
	return x, neg, true
}

// signed consumes an integer that fits a signed integer of the given
// bits.
func (d *decoder) signed(bits int) (int64, bool) {
	x, neg, ok := d.integer()
	limit := uint64(1) << (bits - 1) // the magnitude of the most negative value
	switch {
	case !ok:
		return 0, false
	case neg && x <= limit:
		return int64(-x), true
	case !neg && x < limit:
		return int64(x), true
	}
	return 0, false
}

// string consumes a JSON string and returns its value, unescaping what
// json.Unmarshal unescapes. A surrogate escape, which needs pairing, is
// left to json.Unmarshal.
func (d *decoder) string() (string, bool) {
	if !d.literal(`"`) {
		return "", false
	}
	start := d.pos
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return string(d.data[start:i]), true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			d.pos = i
			return d.unquote(start)
		}
	}
	return "", false
}

// unquote finishes a string that has escapes or non-ASCII bytes, from
// d.pos on; its plain prefix starts at start. It allocates once: no
// escape unescapes to more bytes than it takes, so the raw bytes up to
// the closing quote bound the value, unless invalid UTF-8 widens to
// U+FFFD.
func (d *decoder) unquote(start int) (string, bool) {
	end := d.pos
	for end < len(d.data) && d.data[end] != '"' {
		if d.data[end] == '\\' {
			end++ // the escaped byte, which may be a quote
		}
		end++
	}
	if end >= len(d.data) {
		return "", false
	}
	var b strings.Builder
	b.Grow(end - start)
	b.Write(d.data[start:d.pos])
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return b.String(), true
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b.WriteRune(r)
			d.pos += size
		case c != '\\':
			b.WriteByte(c)
			d.pos++
		case d.pos+1 == len(d.data):
			return "", false
		default:
			e := d.data[d.pos+1]
			d.pos += 2
			switch e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r, ok := d.hex4()
				if !ok || utf16.IsSurrogate(r) {
					return "", false
				}
				b.WriteRune(r)
			default:
				return "", false
			}
		}
	}
	return "", false
}

// hex4 consumes the four hex digits of a \u escape.
func (d *decoder) hex4() (rune, bool) {
	if len(d.data)-d.pos < 4 {
		return 0, false
	}
	var r rune
	for _, c := range d.data[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	d.pos += 4
	return r, true
}
