package workloads

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// GenPrefix marks a parametric generator name. Everything after it is
// the generator grammar below; everything else is a catalog lookup.
const GenPrefix = "gen:"

// Resolve is the single entry point from a workload name to its Spec.
// It understands two name families:
//
//   - catalog names ("crafty", "mcf", ...): the fixed 36-benchmark
//     suite, looked up in the memoized catalog table;
//   - generator names ("gen:spill?depth=8&seed=3", "gen:chase", ...):
//     points in workload-parameter space, produced by the registered
//     Generator families.
//
// A generator name is parsed against its family's parameter schema
// (unknown keys, duplicate keys, malformed or out-of-range values are
// rejected) and then canonicalized: parameters sort by key, values take
// their shortest exact decimal form, and parameters equal to their
// default are dropped. The returned Spec carries the canonical name in
// Spec.Name and a seed derived from that canonical name, so equal names
// — however spelled — build byte-identical programs in any process.
func Resolve(name string) (Spec, error) {
	if strings.HasPrefix(name, GenPrefix) {
		return resolveGen(name)
	}
	if s, ok := tables().byName[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q (catalog: %s; groups: %s; generators: %s)",
		name, strings.Join(tables().names, " "), strings.Join(Groups(), " "), generatorHint())
}

// Param is one knob of a generator family's schema.
type Param struct {
	// Key is the parameter's name in the gen: grammar.
	Key string
	// Doc is a one-line description for docs and error messages.
	Doc string
	// Def is the default value, used when the name omits the key and
	// elided from the canonical spelling.
	Def float64
	// Min and Max bound the accepted range, inclusive.
	Min, Max float64
	// Int marks an integer-valued parameter: its value must be written
	// as a plain decimal integer.
	Int bool
}

// Generator is one registered workload-shape family: a parameter
// schema plus the mapping from a validated parameter point to a Spec.
type Generator struct {
	// Family is the name between "gen:" and "?".
	Family string
	// Doc is a one-line description of the shape family.
	Doc string
	// Params is the schema, in declaration order. Every family also
	// accepts the implicit "seed" parameter (integer, default 0), which
	// varies the program instance without changing the shape point.
	Params []Param
	// Make maps a fully-defaulted parameter point (keyed by Param.Key,
	// plus "seed") to the family's Spec. Resolve fills in Name and Seed
	// afterwards from the canonical name.
	Make func(p map[string]float64) Spec
}

// seedParam is the implicit instance-selection parameter every family
// accepts.
var seedParam = Param{Key: "seed", Doc: "program instance selector (same shape, different draw)", Def: 0, Min: 0, Max: 1 << 32, Int: true}

// Generators lists the registered shape families, sorted by family
// name. The returned slice is freshly allocated; the Generator values
// (including their Params) are shared and must not be mutated.
func Generators() []Generator {
	out := make([]Generator, 0, len(generators))
	for _, g := range generators {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
}

// generatorHint names the registered families for error messages.
func generatorHint() string {
	gs := Generators()
	parts := make([]string, len(gs))
	for i, g := range gs {
		parts[i] = GenPrefix + g.Family
	}
	return strings.Join(parts, " ")
}

// param returns the family's schema entry for key (the implicit seed
// included).
func (g *Generator) param(key string) (Param, bool) {
	if key == seedParam.Key {
		return seedParam, true
	}
	for _, p := range g.Params {
		if p.Key == key {
			return p, true
		}
	}
	return Param{}, false
}

// resolveGen parses, validates and canonicalizes one gen: name.
func resolveGen(name string) (Spec, error) {
	fail := func(format string, args ...interface{}) (Spec, error) {
		return Spec{}, fmt.Errorf("workloads: generator name %q: %s", name, fmt.Sprintf(format, args...))
	}
	rest := strings.TrimPrefix(name, GenPrefix)
	family, query, hasQuery := strings.Cut(rest, "?")
	if family == "" {
		return fail("missing family (known: %s)", generatorHint())
	}
	g, ok := generators[family]
	if !ok {
		return fail("unknown family %q (known: %s)", family, generatorHint())
	}

	// Parameter point: defaults overlaid with the explicitly-given
	// values, every explicit value validated against the schema.
	point := map[string]float64{seedParam.Key: seedParam.Def}
	for _, p := range g.Params {
		point[p.Key] = p.Def
	}
	if hasQuery {
		if query == "" {
			return fail("empty parameter list after '?'")
		}
		seen := make(map[string]bool)
		for _, kv := range strings.Split(query, "&") {
			key, raw, hasEq := strings.Cut(kv, "=")
			if !hasEq || key == "" || raw == "" {
				return fail("malformed parameter %q (want key=value)", kv)
			}
			p, ok := g.param(key)
			if !ok {
				return fail("unknown parameter %q (known: %s)", key, paramHint(g))
			}
			if seen[key] {
				return fail("duplicate parameter %q", key)
			}
			seen[key] = true
			v, err := parseParamValue(p, raw)
			if err != nil {
				return fail("parameter %q: %v", key, err)
			}
			point[key] = v
		}
	}

	canonical := canonicalGenName(g, point)
	spec := g.Make(point)
	spec.Name = canonical
	spec.Seed = hashName(canonical)
	return spec, nil
}

// paramHint lists a family's accepted keys for error messages.
func paramHint(g *Generator) string {
	keys := make([]string, 0, len(g.Params)+1)
	for _, p := range g.Params {
		keys = append(keys, p.Key)
	}
	keys = append(keys, seedParam.Key)
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// parseParamValue parses and range-checks one explicit value against
// its schema entry. Integer parameters must be written as plain decimal
// integers; float parameters accept any strconv-parsable finite decimal
// (the canonical spelling is re-derived, so "0.50" and "5e-1" both
// resolve — to the canonical "0.5").
func parseParamValue(p Param, raw string) (float64, error) {
	var v float64
	if p.Int {
		n, err := strconv.ParseUint(raw, 10, 53)
		if err != nil {
			return 0, fmt.Errorf("want a decimal integer, got %q", raw)
		}
		v = float64(n)
	} else {
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("want a finite decimal, got %q", raw)
		}
		v = f
	}
	if v < p.Min || v > p.Max {
		return 0, fmt.Errorf("value %s out of range [%s, %s]",
			formatParamValue(p, v), formatParamValue(p, p.Min), formatParamValue(p, p.Max))
	}
	return v, nil
}

// formatParamValue renders a value in its canonical spelling.
func formatParamValue(p Param, v float64) string {
	if p.Int {
		return strconv.FormatUint(uint64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// canonicalGenName renders the canonical spelling of a parameter point:
// keys sorted, values in shortest exact form, defaults elided.
func canonicalGenName(g *Generator, point map[string]float64) string {
	keys := make([]string, 0, len(point))
	for k := range point {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(GenPrefix)
	b.WriteString(g.Family)
	sep := "?"
	for _, k := range keys {
		p, _ := g.param(k)
		if point[k] == p.Def {
			continue
		}
		b.WriteString(sep)
		sep = "&"
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(formatParamValue(p, point[k]))
	}
	return b.String()
}

// catalogTables is the memoized index over Catalog(): name lookup, the
// name list and the named groups, computed once. The group-table
// memoization is what makes Members zero-alloc per call.
type catalogTables struct {
	byName     map[string]Spec
	names      []string
	members    map[string][]Spec
	groupNames []string
}

// tables returns the memoized catalog index.
var tables = sync.OnceValue(func() *catalogTables {
	specs := Catalog()
	t := &catalogTables{
		byName:     make(map[string]Spec, len(specs)),
		groupNames: []string{"all", "int", "fp", "branch-hostile"},
	}
	var ints, fps, hostile []Spec
	for _, s := range specs {
		t.byName[s.Name] = s
		t.names = append(t.names, s.Name)
		if s.FP {
			fps = append(fps, s)
		} else {
			ints = append(ints, s)
		}
		if s.HardBranchPct >= 0.4 {
			hostile = append(hostile, s)
		}
	}
	// Clipped, so a caller's append copies instead of writing into the
	// shared tables.
	t.members = map[string][]Spec{
		"all":            specs,
		"int":            slices.Clip(ints),
		"fp":             slices.Clip(fps),
		"branch-hostile": slices.Clip(hostile),
	}
	return t
})

// Members resolves a named benchmark group to its member Specs, in
// catalog order. Known groups:
//
//   - "all":            the full 36-benchmark suite;
//   - "int", "fp":      the two suites the paper's figures split on;
//   - "branch-hostile": the benchmarks whose hard (data-dependent,
//     ~50/50) branch share is at least 40% — the subset where deep
//     speculation is most often wrong and checkpoint recovery dominates.
//
// The second return value reports whether group is known. The returned
// slice is memoized and shared: callers must not mutate it.
func Members(group string) ([]Spec, bool) {
	m, ok := tables().members[group]
	return m, ok
}

// Groups lists the named groups Members resolves. The returned slice is
// memoized and shared: callers must not mutate it.
func Groups() []string { return tables().groupNames }
