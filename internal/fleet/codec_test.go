package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/sim"
	"solarsched/internal/solar"
	"solarsched/internal/store"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// durableKinds is every artifact kind artifactCodecs persists.
var durableKinds = []string{"trace", "patterns", "sizing", "samples", "plan", "dbn"}

// codecArtifacts resolves one artifact of every durable kind for a two-day
// WAM configuration through c's typed accessors, in pipeline order, and
// returns them by kind.
func codecArtifacts(t *testing.T, c *Cache) map[string]any {
	t.Helper()
	ctx := context.Background()
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	g := task.WAM()
	tr, err := c.Trace(ctx, solar.GenConfig{Base: solar.DefaultTimeBase(2), Seed: 777, DayOfYearStart: 80})
	check(err)
	pats, err := c.Patterns(ctx, tr, g, sim.DefaultDirectEff)
	check(err)
	bank, err := c.Sizing(ctx, tr, g, 4, supercap.DefaultParams(), sim.DefaultDirectEff)
	check(err)
	pc := core.DefaultPlanConfig(g, tr.Base, bank)
	samples, err := c.Samples(ctx, pc, tr)
	check(err)
	opt := core.DefaultTrainOptions()
	opt.Fine.Epochs = 8
	net, err := c.Network(ctx, pc, tr, opt)
	check(err)
	plan, err := c.Plan(ctx, pc, tr)
	check(err)
	return map[string]any{
		"trace": tr, "patterns": pats, "sizing": bank,
		"samples": samples, "dbn": net, "plan": plan,
	}
}

// memPersister is an in-memory Persister.
type memPersister map[string][]byte

func (m memPersister) Get(key string) ([]byte, error) {
	if b, ok := m[key]; ok {
		return b, nil
	}
	return nil, errors.New("absent")
}

func (m memPersister) Put(key string, data []byte) error {
	m[key] = data
	return nil
}

// seededArtifacts builds codecArtifacts cold and returns them with the key
// the cache files each under, both by kind.
func seededArtifacts(t *testing.T) (vals map[string]any, keys map[string]string) {
	t.Helper()
	mem := memPersister{}
	vals = codecArtifacts(t, NewDurableCache(nil, mem))
	keys = map[string]string{}
	for key := range mem {
		keys[kindOf(key)] = key
	}
	if len(keys) != len(durableKinds) || len(mem) != len(durableKinds) {
		t.Fatalf("cold resolve persisted %d entries of kinds %v, want one of each of %v", len(mem), keys, durableKinds)
	}
	return vals, keys
}

// jsonOf is the JSON payload the store held for v before the gob codec:
// json.Marshal for every kind but the network, which wrote itself with
// WriteJSON. Comparing it tells a nil slice (null) from an empty one ([]).
func jsonOf(v any) ([]byte, error) {
	if n, ok := v.(*ann.Network); ok {
		var buf bytes.Buffer
		err := n.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	return json.Marshal(v)
}

// bitDiff returns where a and b first differ, or "" when they are equal.
// It walks unexported fields too and compares floats by their bits, so a
// NaN equals itself and 0 differs from -0. A nil and an empty slice are
// equal here; jsonOf tells them apart.
func bitDiff(a, b reflect.Value, path string) string {
	if a.Type() != b.Type() {
		return fmt.Sprintf("%s: type %s vs %s", path, a.Type(), b.Type())
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Uint(), b.Uint())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return fmt.Sprintf("%s: nil %v vs %v", path, a.IsNil(), b.IsNil())
			}
			return ""
		}
		return bitDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		return fmt.Sprintf("%s: cannot compare kind %s", path, a.Kind())
	}
	return ""
}

// artifactDiff returns where got differs from want, by bits or by JSON
// (which tells a nil slice from an empty one), or "" when it does not.
func artifactDiff(kind string, want, got any) string {
	if d := bitDiff(reflect.ValueOf(want), reflect.ValueOf(got), kind); d != "" {
		return d
	}
	a, errA := jsonOf(want)
	b, errB := jsonOf(got)
	if errA != nil || errB != nil {
		return fmt.Sprintf("%s: JSON: %v, %v", kind, errA, errB)
	}
	if !bytes.Equal(a, b) {
		return kind + ": JSON differs"
	}
	return ""
}

// unsetLeaves lists the leaf fields of v's type (numbers, strings, bools,
// by path with slice indices dropped) that hold their zero value in every
// instance v contains, skipping the fields named in skip. A round-trip
// test over v can only notice a dropped field that is set somewhere.
func unsetLeaves(v reflect.Value, skip ...string) []string {
	set := map[string]bool{}
	var types func(t reflect.Type, path string)
	types = func(t reflect.Type, path string) {
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			types(t.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if f := t.Field(i); !contains(skip, f.Name) {
					types(f.Type, path+"."+f.Name)
				}
			}
		default:
			set[path] = false
		}
	}
	var values func(v reflect.Value, path string)
	values = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				values(v.Elem(), path+"[]")
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				values(v.Index(i), path+"[]")
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); !contains(skip, f.Name) {
					values(v.Field(i), path+"."+f.Name)
				}
			}
		default:
			if !v.IsZero() {
				set[path] = true
			}
		}
	}
	types(v.Type(), "")
	values(v, "")
	var unset []string
	for path, ok := range set {
		if !ok {
			unset = append(unset, path)
		}
	}
	sort.Strings(unset)
	return unset
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// roundTrip sends v of the given kind through the store as the durable
// cache does: encode, Put, Get, decode.
func roundTrip(t *testing.T, st *store.Store, kind, name string, v any) any {
	t.Helper()
	codec := artifactCodecs()[kind]
	data, err := codec.Encode(v)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	key := artifactKey(kind, name)
	if err := st.Put(key, data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(got)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	return back
}

// TestDurableCodecExact sends one seeded artifact of every durable kind
// through encode, store Put, store Get and decode, and requires it back
// bit for bit, with the same JSON (so no empty slice came back nil). Every
// serialized field is set somewhere in the artifacts, so a codec that
// drops a field fails here; the trace and the samples also carry NaN and
// ±Inf, which the JSON payload could not persist.
func TestDurableCodecExact(t *testing.T) {
	vals, _ := seededArtifacts(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The from-scratch network has no parent; give a copy one so that the
	// provenance's parent fields are exercised too.
	net := vals["dbn"].(*ann.Network).Clone()
	prov := *net.Provenance()
	prov.Parent, prov.ParentVersion = "9f86d081884c7d65", 3
	net.SetProvenance(&prov)
	vals["dbn"] = net

	for _, kind := range durableKinds {
		v := vals[kind]
		if unset := unsetLeaves(reflect.ValueOf(v), "reg"); len(unset) > 0 {
			t.Errorf("%s: fields never set in the seeded artifact, so a codec could drop them unnoticed: %v", kind, unset)
		}
		if d := artifactDiff(kind, v, roundTrip(t, st, kind, kind, v)); d != "" {
			t.Errorf("%s: round trip differs at %s", kind, d)
		}
	}

	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	tr := *vals["trace"].(*solar.Trace)
	tr.Power = append([]float64(nil), tr.Power...)
	copy(tr.Power, nonFinite)
	ss := vals["samples"].(*SampleSet)
	odd := &SampleSet{Inputs: append(ss.Inputs[:0:0], ss.Inputs...), Targets: append(ss.Targets[:0:0], ss.Targets...)}
	odd.Inputs[0] = append(odd.Inputs[0][:0:0], odd.Inputs[0]...)
	copy(odd.Inputs[0], nonFinite)
	odd.Targets[0].Alpha = math.NaN()
	odd.Targets[1].Te = append([]float64(nil), odd.Targets[1].Te...)
	odd.Targets[1].Te[0] = math.Inf(-1)
	for _, c := range []struct {
		kind string
		v    any
	}{{"trace", &tr}, {"samples", odd}} {
		if _, err := json.Marshal(c.v); err == nil {
			t.Fatalf("%s: JSON accepted a non-finite value; the case tests nothing", c.kind)
		}
		back := roundTrip(t, st, c.kind, c.kind+"-nonfinite", c.v)
		if d := bitDiff(reflect.ValueOf(c.v), reflect.ValueOf(back), c.kind); d != "" {
			t.Errorf("%s with non-finite values: round trip differs at %s", c.kind, d)
		}
	}
}
