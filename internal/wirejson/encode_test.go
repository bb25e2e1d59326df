package wirejson

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

var subJSON = For[sub]()

// marshalKinds is a kinds value with every field set, so each edit
// below changes one value json.Marshal writes.
func marshalKinds() kinds {
	two := 2
	pTwo := &two
	return kinds{
		I8: -128, I16: 32767, I32: -1 << 31, I64: 7, I: -7,
		U8: 255, U16: 65535, U32: 1<<32 - 1, U: 9,
		F32: 1.5, F64: -0.1, B: true, S: "plain", Kind: "k",
		Ints: []int{1, 2}, Subs: []sub{{A: 1, B: "x"}}, Ptr: &sub{B: "p"}, PP: &pTwo,
		Skip: 3, priv: 4, Tail: []*sub{nil, {A: 3}},
	}
}

// TestAppendMatchesMarshal: Append writes json.Marshal's bytes, or
// returns its error, at the edges of each kind's range and of its
// escaping; after a prefix it keeps the prefix, and on error it returns
// dst as given.
func TestAppendMatchesMarshal(t *testing.T) {
	var nilInt *int
	for _, c := range []struct {
		name string
		edit func(*kinds)
	}{
		{"every field set", func(*kinds) {}},
		{"zero", func(v *kinds) { *v = kinds{} }},
		{"MinInt64", func(v *kinds) { v.I64, v.I = math.MinInt64, math.MinInt }},
		{"MaxInt64", func(v *kinds) { v.I64, v.I = math.MaxInt64, math.MaxInt }},
		{"MaxUint64", func(v *kinds) { v.U = math.MaxUint64 }},
		{"false", func(v *kinds) { v.B = false }},
		{"HTML", func(v *kinds) { v.S = `<a href="x?a=1&b=2">'</a>` }},
		{"backslash and slash", func(v *kinds) { v.S = `C:\dir/file` }},
		{"short escapes", func(v *kinds) { v.S = "\b\f\n\r\t" }},
		{"other control characters", func(v *kinds) { v.S = "\x00\x01\x07\x0b\x0e\x1b\x1f" }},
		{"DEL", func(v *kinds) { v.S = "a\x7fb" }},
		{"multibyte", func(v *kinds) { v.S = "é€😀" }},
		{"line and paragraph separators", func(v *kinds) { v.S = "a\u2028b\u2029c\u2027d\u202a" }},
		{"invalid UTF-8", func(v *kinds) { v.S = "a\xffb\xc3(c\xed\xa0\x80d\xf0\x9f\x98" }},
		{"named string", func(v *kinds) { v.Kind = "<&>" }},
		{"-0", func(v *kinds) { v.F64, v.F32 = math.Copysign(0, -1), float32(math.Copysign(0, -1)) }},
		{"below 1e-6", func(v *kinds) { v.F64 = math.Nextafter(1e-6, 0) }},
		{"1e-6", func(v *kinds) { v.F64 = 1e-6 }},
		{"-1e-7", func(v *kinds) { v.F64 = -1e-7 }},
		{"below 1e21", func(v *kinds) { v.F64 = math.Nextafter(1e21, 0) }},
		{"1e21", func(v *kinds) { v.F64 = 1e21 }},
		{"-1e21", func(v *kinds) { v.F64 = -1e21 }},
		{"1e-300", func(v *kinds) { v.F64 = 1e-300 }},
		{"MaxFloat64", func(v *kinds) { v.F64 = math.MaxFloat64 }},
		{"smallest float64", func(v *kinds) { v.F64 = math.SmallestNonzeroFloat64 }},
		{"float32 below 1e-6", func(v *kinds) { v.F32 = math.Nextafter32(1e-6, 0) }},
		{"float32 1e-6", func(v *kinds) { v.F32 = 1e-6 }},
		{"float32 below 1e21", func(v *kinds) { v.F32 = math.Nextafter32(1e21, 0) }},
		{"float32 1e21", func(v *kinds) { v.F32 = 1e21 }},
		{"float32 0.1", func(v *kinds) { v.F32 = 0.1 }},
		{"NaN", func(v *kinds) { v.F64 = math.NaN() }},
		{"+Inf", func(v *kinds) { v.F64 = math.Inf(1) }},
		{"-Inf", func(v *kinds) { v.F64 = math.Inf(-1) }},
		{"float32 NaN", func(v *kinds) { v.F32 = float32(math.NaN()) }},
		{"float32 -Inf", func(v *kinds) { v.F32 = float32(math.Inf(-1)) }},
		{"NaN in a slice element", func(v *kinds) { v.Tail = []*sub{{A: 1}}; v.F64 = math.NaN() }},
		{"nil slices", func(v *kinds) { v.Ints, v.Subs, v.Tail = nil, nil, nil }},
		{"empty slices", func(v *kinds) { v.Ints, v.Subs, v.Tail = []int{}, []sub{}, []*sub{} }},
		{"nil pointers", func(v *kinds) { v.Ptr, v.PP = nil, nil }},
		{"pointer to a nil pointer", func(v *kinds) { v.PP = &nilInt }},
		{"nil slice elements", func(v *kinds) { v.Tail = []*sub{nil, nil} }},
	} {
		v := marshalKinds()
		c.edit(&v)
		want, wantErr := json.Marshal(&v)
		got, gotErr := kindsJSON.Append(nil, &v)
		if errText(gotErr) != errText(wantErr) || string(got) != string(want) {
			t.Errorf("%s: Append %s (%s), json.Marshal %s (%s)", c.name, got, errText(gotErr), want, errText(wantErr))
			continue
		}
		dst := make([]byte, 0, 4096)
		dst = append(dst, "prefix,"...)
		got, gotErr = kindsJSON.Append(dst, &v)
		switch {
		case gotErr == nil && string(got) != "prefix,"+string(want):
			t.Errorf("%s: after a prefix, Append wrote %s", c.name, got)
		case gotErr != nil && (len(got) != len(dst) || cap(got) != cap(dst) || &got[0] != &dst[0] || string(got) != "prefix,"):
			t.Errorf("%s: on error, Append returned %q, not dst", c.name, got)
		}
	}
	if got, err := kindsJSON.Append([]byte("x"), nil); err != nil || string(got) != "xnull" {
		t.Errorf("a nil pointer: Append wrote %s (%v), want json.Marshal's null", got, err)
	}
}

// TestAppendPastTheCycleCheck: a value nested deeper than json.Marshal
// checks for cycles is written by json.Marshal, and a cycle gets its
// error.
func TestAppendPastTheCycleCheck(t *testing.T) {
	var deep *recursive
	for i := 0; i < 2*maxDepth; i++ {
		deep = &recursive{Name: "n", Next: deep}
	}
	cyclic := &recursive{Name: "c"}
	cyclic.Next = &recursive{Name: "d", Next: cyclic}
	for name, v := range map[string]*recursive{"deep": deep, "cyclic": cyclic} {
		want, wantErr := json.Marshal(v)
		got, gotErr := recursiveJSON.Append(nil, v)
		if errText(gotErr) != errText(wantErr) || string(got) != string(want) {
			t.Errorf("%s: Append %.40s… (%s), json.Marshal %.40s… (%s)", name, got, errText(gotErr), want, errText(wantErr))
		}
	}
	if _, err := recursiveJSON.Append(nil, cyclic); err == nil || !strings.Contains(err.Error(), "encountered a cycle") {
		t.Errorf("a cycle: got %v, want json.Marshal's cycle error", err)
	}
}

// TestAppendDoesNotAllocate: into a buffer with room, Append allocates
// nothing.
func TestAppendDoesNotAllocate(t *testing.T) {
	v := marshalKinds()
	v.S = "a<b>&c\n\u2028\xff"
	buf := make([]byte, 0, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := kindsJSON.Append(buf, &v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Append allocates %v times per call, want 0", allocs)
	}
}

// TestEscapedStringDecodesInOneAllocation: a string with an escape
// costs Unmarshal no more allocations than a plain one.
func TestEscapedStringDecodesInOneAllocation(t *testing.T) {
	allocs := func(data string) float64 {
		if !subJSON.Fast([]byte(data)) {
			t.Fatalf("%s does not take the fast path", data)
		}
		return testing.AllocsPerRun(100, func() {
			var v sub
			if err := subJSON.Unmarshal([]byte(data), &v); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, escaped := allocs(`{"A":1,"B":"gen:spill?depth=16&far=0.5"}`), allocs(`{"A":1,"B":"gen:spill?depth=16\u0026far=0.5"}`)
	if escaped != plain {
		t.Fatalf("an escaped string takes %v allocations, a plain one %v", escaped, plain)
	}
}
