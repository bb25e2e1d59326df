package wirejson

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// kinds covers every kind a plan decodes, at sizes the stack's own wire
// types do not use.
type kinds struct {
	I8   int8
	I16  int16
	I32  int32
	I64  int64
	I    int
	U8   uint8
	U16  uint16
	U32  uint32
	U    uint
	F32  float32
	F64  float64
	B    bool
	S    string `json:"s_tagged"`
	Kind named
	Ints []int
	Subs []sub
	Ptr  *sub
	PP   **int
	Skip int `json:"-"`
	priv int
	Tail []*sub
}

type named string

type sub struct {
	A int
	B string
}

type recursive struct {
	Name string
	Next *recursive
}

var (
	kindsJSON     = For[kinds]()
	recursiveJSON = For[recursive]()
)

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T: %v", err, err)
}

// equivalent requires p.Unmarshal to return what json.Unmarshal returns
// for data, into zero values, and reports whether data took the fast
// path.
func equivalent[T any](t *testing.T, p *Plan[T], data []byte) bool {
	t.Helper()
	var got, want T
	gotErr, wantErr := p.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%q: error %s, json.Unmarshal %s", data, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: decoded %+v, json.Unmarshal %+v", data, got, want)
	}
	return p.Fast(data)
}

// TestKindsMatchEncodingJSON: each kind decodes as json.Unmarshal
// decodes it, at the edges of its range and its syntax, and what
// json.Marshal writes takes the fast path.
func TestKindsMatchEncodingJSON(t *testing.T) {
	two := 2
	pTwo := &two
	v := kinds{
		I8: -128, I16: 32767, I32: -1 << 31, I64: -1 << 63, I: 1<<63 - 1,
		U8: 255, U16: 65535, U32: 1<<32 - 1, U: 1<<64 - 1,
		F32: 1.5e-7, F64: -0.1, B: true, S: "a<b>&\"\\/ é\x01", Kind: "k",
		Ints: []int{}, Subs: []sub{{A: 1, B: "x"}, {A: -2}}, Ptr: &sub{B: "p"}, PP: &pTwo,
		Tail: []*sub{nil, {A: 3}},
	}
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(t, kindsJSON, compact) || !equivalent(t, kindsJSON, append(compact, '\n')) {
		t.Fatalf("json.Marshal output %s does not take the fast path", compact)
	}
	var got kinds
	if err := kindsJSON.Unmarshal(compact, &got); err != nil || !reflect.DeepEqual(got, v) {
		t.Fatalf("round trip: got %+v (%v), want %+v", got, err, v)
	}

	// Each edit of one field's value, and whether the result still takes
	// the fast path.
	for _, c := range []struct {
		field, value string
		fast         bool
	}{
		{`"I8"`, `127`, true}, {`"I8"`, `128`, false}, {`"I8"`, `-129`, false},
		{`"I64"`, `9223372036854775807`, true}, {`"I64"`, `9223372036854775808`, false},
		{`"I64"`, `-9223372036854775809`, false}, {`"I"`, `-0`, true}, {`"I"`, `1e2`, false},
		{`"I"`, `1.0`, false}, {`"I"`, `01`, false}, {`"I"`, `-`, false}, {`"I"`, `"1"`, false},
		{`"I"`, `null`, false}, {`"I"`, `99999999999999999999999`, false},
		{`"U8"`, `256`, false}, {`"U"`, `18446744073709551615`, true},
		{`"U"`, `18446744073709551616`, false}, {`"U"`, `-0`, false}, {`"U16"`, `-1`, false},
		{`"F32"`, `3.5e38`, false}, {`"F32"`, `1e-50`, true}, {`"F64"`, `1e400`, false},
		{`"F64"`, `-0`, true}, {`"F64"`, `2.5E+3`, true}, {`"F64"`, `.5`, false},
		{`"F64"`, `1.`, false}, {`"F64"`, `1e`, false}, {`"F64"`, `0x10`, false},
		{`"F64"`, `Infinity`, false}, {`"B"`, `false`, true}, {`"B"`, `null`, false},
		{`"B"`, `1`, false}, {`"s_tagged"`, `"😀"`, true},
		{`"s_tagged"`, `"\ud83d"`, false}, {`"s_tagged"`, `"\ud83d\ude00"`, false},
		{`"s_tagged"`, `"éé\t\b\f\n\r\/\u00E9\u2028"`, true},
		{`"s_tagged"`, `"\x"`, false}, {`"s_tagged"`, `"\u12"`, false},
		{`"s_tagged"`, "\"\xff\xfe\"", true}, {`"s_tagged"`, "\"\t\"", false},
		{`"s_tagged"`, `null`, false}, {`"Kind"`, `5`, false},
		{`"Ints"`, `null`, true}, {`"Ints"`, `[1,2,3]`, true}, {`"Ints"`, `[1,]`, false},
		{`"Ints"`, `[ 1]`, false}, {`"Ints"`, `{}`, false},
		{`"Subs"`, `[]`, true}, {`"Subs"`, `[null]`, false}, {`"Subs"`, `[{"B":"x","A":1}]`, false},
		{`"Ptr"`, `null`, true}, {`"Ptr"`, `{"A":1,"B":""}`, true}, {`"Ptr"`, `{"A":1}`, false},
		{`"PP"`, `null`, true}, {`"Tail"`, `[null,null]`, true},
	} {
		data := editField(t, compact, c.field, c.value)
		if fast := equivalent(t, kindsJSON, data); fast != c.fast {
			t.Errorf("%s: %s: fast path %v, want %v", c.field, c.value, fast, c.fast)
		}
	}

	for _, data := range []string{
		``, `null`, `{}`, `[]`, `"x"`, ` ` + string(compact), string(compact) + ` `,
		string(compact) + "\n\n", string(compact) + "x", string(compact) + string(compact),
		strings.Replace(string(compact), `"I8"`, `"i8"`, 1),
		strings.Replace(string(compact), `"I8"`, `"\u0049\u0038"`, 1),
		strings.Replace(string(compact), `"I8":-128,`, ``, 1),
		strings.Replace(string(compact), `"I8":-128,`, `"I8":-128,"I8":1,`, 1),
		strings.Replace(string(compact), `"I8":-128,`, `"Skip":1,"I8":-128,`, 1),
		strings.Replace(string(compact), `"I8":-128,`, `"priv":1,"I8":-128,`, 1),
	} {
		if equivalent(t, kindsJSON, []byte(data)) {
			t.Errorf("%q took the fast path", data)
		}
	}

	r := recursive{Name: "a", Next: &recursive{Name: "b"}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalent(t, recursiveJSON, data) {
		t.Errorf("%s did not take the fast path", data)
	}
}

// editField replaces the value json.Marshal wrote for one top-level
// field of a kinds value.
func editField(t *testing.T, compact []byte, field, value string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(compact, &m); err != nil {
		t.Fatal(err)
	}
	old := field + ":" + string(m[strings.Trim(field, `"`)])
	s := string(compact)
	if !strings.Contains(s, old) {
		t.Fatalf("%s not in %s", old, s)
	}
	return []byte(strings.Replace(s, old, field+":"+value, 1))
}

// TestUnmarshalKeepsTheValueOnFallback: the fast path writes into *v
// before it meets what it cannot decode, and json.Unmarshal then sees
// *v as the caller left it.
func TestUnmarshalKeepsTheValueOnFallback(t *testing.T) {
	keep := &sub{A: 7}
	start := kinds{I8: 5, Skip: 9, priv: 3, Ptr: keep, Ints: []int{4}}
	data := []byte(`{"I8":1,"I16":2,"Bogus":true}`)
	got, want := start, start
	gotErr, wantErr := kindsJSON.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v (%s), want %+v (%s)", got, errText(gotErr), want, errText(wantErr))
	}
	if got.Ptr != keep || *keep != (sub{A: 7}) {
		t.Fatalf("the fallback lost or changed the pointee: %+v", got.Ptr)
	}
	var nilPtr *kinds
	if errText(kindsJSON.Unmarshal(data, nilPtr)) != errText(json.Unmarshal(data, nilPtr)) {
		t.Fatal("a nil pointer is not refused as json.Unmarshal refuses it")
	}
}

// TestForRefusesWhatItCannotWalk: a type the plan would misread, or
// could only hand to json.Unmarshal, panics at For.
func TestForRefusesWhatItCannotWalk(t *testing.T) {
	type embedded struct{ sub }
	for name, build := range map[string]func(){
		"not a struct": func() { For[int]() },
		"map":          func() { For[struct{ M map[string]int }]() },
		"interface":    func() { For[struct{ X any }]() },
		"array":        func() { For[struct{ A [2]int }]() },
		"bytes":        func() { For[struct{ B []byte }]() },
		"embedded":     func() { For[embedded]() },
		"omitempty": func() {
			For[struct {
				A int `json:"a,omitempty"`
			}]()
		},
		"string option": func() {
			For[struct {
				A int `json:",string"`
			}]()
		},
		"tag name": func() {
			For[struct {
				A int `json:"a-b"`
			}]()
		},
		"same name": func() {
			For[struct {
				A int
				B int `json:"A"`
			}]()
		},
		"marshaler":   func() { For[struct{ T time.Time }]() },
		"raw message": func() { For[struct{ R json.RawMessage }]() },
		"number":      func() { For[struct{ N json.Number }]() },
		"pointer":     func() { For[struct{ P *map[int]int }]() },
		"channel":     func() { For[struct{ C chan int }]() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: For did not panic", name)
				}
			}()
			build()
		}()
	}
}
