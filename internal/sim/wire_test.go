package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/wirejson"
)

// The plans of the four types the stack reads and writes on its hot
// paths — store envelopes (sim.Store), /v1/run bodies and results
// (dispatch), and fleet claims — and of the config sim.Key hashes.
var (
	envelopeJSON = wirejson.For[sim.Envelope]()
	requestJSON  = wirejson.For[sim.Request]()
	resultJSON   = wirejson.For[sim.Result]()
	claimJSON    = wirejson.For[fleet.Claim]()
	configJSON   = wirejson.For[core.Config]()
)

// wireRequest is a request as a drain or a client sends it: a gen: name
// with '&', which json.Marshal escapes.
func wireRequest() sim.Request {
	cfg := core.DefaultConfig()
	cfg.ME.Enabled, cfg.SMB.Enabled = true, true
	cfg.Tracker = core.TrackerConfig{Kind: core.TrackerISRB, Entries: 32, CounterBits: 3}
	return sim.Request{Bench: "gen:spill?depth=16&far=0.5&seed=7", Config: cfg, Warmup: 20000, Measure: 80000}
}

// wireResult is a result with every statistic set and a non-integer IPC.
func wireResult() sim.Result {
	res := sim.Result{Bench: "gen:spill?depth=16&far=0.5&seed=7", StaticUops: 1234, TrackerName: "isrb-32x3", IPC: 2.3456789}
	for _, s := range []any{&res.S, &res.Tracker, &res.ME, &res.Mem} {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Uint64:
				f.SetUint(uint64(1000*i + 7))
			case reflect.Bool:
				f.SetBool(true)
			}
		}
	}
	return res
}

func wireEnvelope() sim.Envelope {
	res := wireResult()
	return sim.Envelope{Schema: "rs1", SimVersion: "s1-0123abcd", Key: sim.Key(wireRequest()), Result: &res}
}

func wireClaim() fleet.Claim {
	return fleet.Claim{Schema: fleet.ClaimSchema, Grid: "0123456789abcdef", Shard: 3, Holder: "host-a&b", Epoch: 2, Gen: 41, Done: true}
}

func marshal(tb testing.TB, v any, indent bool) []byte {
	tb.Helper()
	var data []byte
	var err error
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestWireEncodingsTakeTheFastPath: what the stack writes for each of
// the four types — json.Marshal's output, and a json.Encoder's with its
// trailing newline, as the service writes results — decodes without
// encoding/json, to the value encoded.
func TestWireEncodingsTakeTheFastPath(t *testing.T) {
	fast(t, requestJSON, wireRequest())
	fast(t, resultJSON, wireResult())
	fast(t, envelopeJSON, wireEnvelope())
	fast(t, claimJSON, wireClaim())
}

func fast[T any](t *testing.T, p *wirejson.Plan[T], v T) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{marshal(t, v, false), buf.Bytes()} {
		if !p.Fast(data) {
			t.Errorf("%T: %s does not take the fast path", v, data)
		}
		var got T
		if err := p.Unmarshal(data, &got); err != nil || !reflect.DeepEqual(got, v) {
			t.Errorf("%T: decoded %+v (%v), want %+v", v, got, err, v)
		}
	}
	if p.Fast(marshal(t, v, true)) {
		t.Errorf("%T: the indented encoding takes the fast path", v)
	}
}

// FuzzWireDecode: on arbitrary bytes, the plan of each of the four types
// returns what json.Unmarshal returns: the same error (nil, or its text)
// and, from a zero value, a deeply equal value.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		equivalent(t, envelopeJSON, data)
		equivalent(t, requestJSON, data)
		equivalent(t, resultJSON, data)
		equivalent(t, claimJSON, data)
	})
}

// FuzzWireEncode: whatever json.Unmarshal decodes from arbitrary bytes
// into one of the four types, or into a core.Config, the plan writes as
// json.Marshal writes it: the same bytes, or the same error.
func FuzzWireEncode(f *testing.F) {
	for _, seed := range wireSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, envelopeJSON, data)
		reencodes(t, requestJSON, data)
		reencodes(t, resultJSON, data)
		reencodes(t, claimJSON, data)
		reencodes(t, configJSON, data)
	})
}

// wireSeeds are the wire fuzzers' seeds: each type's compact and
// indented encodings, and edits at the edges of the layout json.Marshal
// writes and of the values it writes.
func wireSeeds(f *testing.F) [][]byte {
	req, res, env, cl := wireRequest(), wireResult(), wireEnvelope(), wireClaim()
	var seeds [][]byte
	for _, v := range []any{req, res, env, cl, req.Config} {
		seeds = append(seeds, marshal(f, v, false), marshal(f, v, true))
	}
	edit := func(data []byte, old, new string) []byte {
		if !bytes.Contains(data, []byte(old)) {
			f.Fatalf("%s not in %s", old, data)
		}
		return bytes.Replace(data, []byte(old), []byte(new), 1)
	}
	reqJSON, resJSON, clJSON := marshal(f, req, false), marshal(f, res, false), marshal(f, cl, false)
	cfgJSON := marshal(f, req.Config, false)
	res.IPC = 1.5e-7
	return append(seeds,
		marshal(f, res, false), // a float with an exponent
		reqJSON[:len(reqJSON)/2],
		append(append([]byte(nil), resJSON...), "junk"...),
		append(append([]byte(nil), clJSON...), clJSON...),
		edit(clJSON, `"grid":"0123456789abcdef","shard":3`, `"shard":3,"grid":"0123456789abcdef"`),
		edit(clJSON, `"gen":41,`, `"gen":41,"gen":42,`),
		edit(reqJSON, `"Bench"`, `"bench"`),
		edit(clJSON, `"shard":3`, `"shard":3e0`),
		edit(reqJSON, `"Mem":{`, `"Mem":null,"X":{`),
		edit(resJSON, `"TrackerName":"isrb`, "\"TrackerName\":\"\xff\xfeisrb"),
		edit(resJSON, `"TrackerName":"isrb`, "\"TrackerName\":\"\x01isrb"),
		edit(resJSON, `"TrackerName":"isrb`, `"TrackerName":"\u003c\u2028\u0001\u007f\ud83d\ude00isrb`),
		edit(resJSON, `"IPC":2.3456789`, `"IPC":-0`),
		edit(resJSON, `"IPC":2.3456789`, `"IPC":0.000001`),
		edit(resJSON, `"IPC":2.3456789`, `"IPC":1e21`),
		edit(resJSON, `"IPC":2.3456789`, `"IPC":999999999999999999999`),
		edit(cfgJSON, `"TAGEGeometry":null`, `"TAGEGeometry":[]`),
		edit(cfgJSON, `"TAGEGeometry":null`, `"TAGEGeometry":[-9223372036854775808,9223372036854775807]`),
		edit(cfgJSON, `"Name":"L1I"`, `"Name":"L1I\u0026\u003e"`),
	)
}

// reencodes requires the plan to write what json.Unmarshal decodes from
// data into a zero T as json.Marshal writes it.
func reencodes[T any](t *testing.T, p *wirejson.Plan[T], data []byte) {
	t.Helper()
	var v T
	if json.Unmarshal(data, &v) != nil {
		return
	}
	got, gotErr := p.Append(nil, &v)
	want, wantErr := json.Marshal(&v)
	if errText(gotErr) != errText(wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("%T: %q: Append %s (%s), json.Marshal %s (%s)", v, data, got, errText(gotErr), want, errText(wantErr))
	}
}

// TestKeyIsPinned: sim.Key's strings, recorded from the json.Marshal
// encoding of each config, for the default machine, a gen: name with
// '&', and an SMB machine whose distance predictor has no geometry
// (nil: the default TAGE) and an empty one (the PC-only predictor).
// Store entries, manifest roots and fleet grid IDs all derive from them.
// KeyOf over DigestOf, which scenario.Expand interns by, assembles the
// same strings.
func TestKeyIsPinned(t *testing.T) {
	smb := core.DefaultConfig()
	smb.SMB.Enabled = true
	pcOnly := smb
	pcOnly.SMB.TAGEGeometry = []int{}
	for _, c := range []struct {
		req  sim.Request
		want string
	}{
		{sim.Request{Bench: "crafty", Config: core.DefaultConfig(), Warmup: 2000, Measure: 10000}, "crafty-2000-10000-767192f9b9e26a20"},
		{wireRequest(), "gen:spill?depth=16&far=0.5&seed=7-20000-80000-cb918907559fd40a"},
		{sim.Request{Bench: "hmmer", Config: smb, Warmup: 1000, Measure: 8000}, "hmmer-1000-8000-9c465c67fea1602f"},
		{sim.Request{Bench: "hmmer", Config: pcOnly, Warmup: 1000, Measure: 8000}, "hmmer-1000-8000-0f27af0d87e51183"},
	} {
		if got := sim.Key(c.req); got != c.want {
			t.Errorf("Key(%s …) = %s, want %s", c.req.Bench, got, c.want)
		}
		if got := sim.KeyOf(c.req.Bench, c.req.Warmup, c.req.Measure, sim.DigestOf(&c.req.Config)); got != c.want {
			t.Errorf("KeyOf(%s …, DigestOf) = %s, want %s", c.req.Bench, got, c.want)
		}
	}
}

// TestKeyAllocatesOnlyItsString: the config is encoded and hashed
// without a heap allocation.
func TestKeyAllocatesOnlyItsString(t *testing.T) {
	req := wireRequest()
	if allocs := testing.AllocsPerRun(100, func() { sim.Key(req) }); allocs != 1 {
		t.Fatalf("Key allocates %v times per call, want 1", allocs)
	}
}

func equivalent[T any](t *testing.T, p *wirejson.Plan[T], data []byte) {
	t.Helper()
	var got, want T
	gotErr, wantErr := p.Unmarshal(data, &got), json.Unmarshal(data, &want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("%T: %q: error %s, json.Unmarshal %s", got, data, errText(gotErr), errText(wantErr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q: decoded %+v, json.Unmarshal %+v", got, data, got, want)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%T: %v", err, err)
}

// BenchmarkWireEncode times each plan's Append, into a buffer with room,
// against json.Marshal.
func BenchmarkWireEncode(b *testing.B) {
	benchEncode(b, configJSON, wireRequest().Config)
	benchEncode(b, requestJSON, wireRequest())
	benchEncode(b, resultJSON, wireResult())
	benchEncode(b, envelopeJSON, wireEnvelope())
	benchEncode(b, claimJSON, wireClaim())
}

func benchEncode[T any](b *testing.B, p *wirejson.Plan[T], v T) {
	name := strings.TrimPrefix(strings.TrimPrefix(fmt.Sprintf("%T", v), "sim."), "core.")
	buf := make([]byte, 0, 4<<10)
	b.Run(name+"/plan", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := p.Append(buf, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := json.Marshal(&v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWireDecode times each plan against json.Unmarshal on what
// json.Marshal writes.
func BenchmarkWireDecode(b *testing.B) {
	bench(b, requestJSON, wireRequest())
	bench(b, resultJSON, wireResult())
	bench(b, envelopeJSON, wireEnvelope())
	bench(b, claimJSON, wireClaim())
}

func bench[T any](b *testing.B, p *wirejson.Plan[T], v T) {
	data := marshal(b, v, false)
	name := strings.TrimPrefix(fmt.Sprintf("%T", v), "sim.")
	b.Run(name+"/plan", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var got T
			if err := p.Unmarshal(data, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var got T
			if err := json.Unmarshal(data, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
