package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"nrmi/internal/graph"
)

// Edge-of-format tests: hostile streams, size limits, engine mixing, and
// less common type shapes.

type ptrPtr struct {
	PP **wnode
}

type namedSlice []int

type namedMap map[string]int

type arrayHolder struct {
	Grid [2][2]*wnode
}

func edgeRegistry(t *testing.T) *Registry {
	t.Helper()
	r := testRegistry(t)
	for name, sample := range map[string]any{
		"ptrPtr":      ptrPtr{},
		"namedSlice":  namedSlice{},
		"namedMap":    namedMap{},
		"arrayHolder": arrayHolder{},
	} {
		if err := r.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestPointerToPointer(t *testing.T) {
	reg := edgeRegistry(t)
	inner := &wnode{Data: 5}
	v := &ptrPtr{PP: &inner}
	got := roundTrip(t, Options{Registry: reg}, v).(*ptrPtr)
	if got.PP == nil || *got.PP == nil || (*got.PP).Data != 5 {
		t.Fatalf("pointer-to-pointer mangled: %+v", got)
	}
}

func TestNamedCompositeTypes(t *testing.T) {
	reg := edgeRegistry(t)
	opts := Options{Registry: reg}
	s := namedSlice{1, 2, 3}
	if got := roundTrip(t, opts, s).(namedSlice); !reflect.DeepEqual(got, s) {
		t.Fatalf("named slice: %v", got)
	}
	m := namedMap{"a": 1}
	if got := roundTrip(t, opts, m).(namedMap); got["a"] != 1 {
		t.Fatalf("named map: %v", got)
	}
}

func TestNestedArraysOfPointers(t *testing.T) {
	reg := edgeRegistry(t)
	shared := &wnode{Data: 9}
	v := &arrayHolder{Grid: [2][2]*wnode{{shared, nil}, {nil, shared}}}
	got := roundTrip(t, Options{Registry: reg}, v).(*arrayHolder)
	if got.Grid[0][0] == nil || got.Grid[0][0] != got.Grid[1][1] {
		t.Fatal("aliasing across nested arrays lost")
	}
}

func TestMaxElemsEnforced(t *testing.T) {
	reg := edgeRegistry(t)
	big := make([]int, 100)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf, Options{Registry: reg, MaxElems: 10})
	_, err := dec.Decode()
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("want ErrLimit, got %v", err)
	}
}

func TestDecoderRejectsRefToFutureObject(t *testing.T) {
	reg := edgeRegistry(t)
	// Craft: header + tagRef to object 7 with an empty table.
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg, Engine: EngineV2})
	if err := enc.EncodeUint(0); err != nil { // forces header emission
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte{}, buf.Bytes()...)
	raw = append(raw, tagRef, 7)
	dec := NewDecoder(bytes.NewReader(raw), Options{Registry: reg})
	if _, err := dec.DecodeUint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("want ErrBadStream, got %v", err)
	}
}

func TestSeedObjectValidation(t *testing.T) {
	reg := edgeRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if _, err := enc.SeedObject(reflect.ValueOf(42)); err == nil {
		t.Fatal("seeding a scalar must fail")
	}
	var nilp *wnode
	if _, err := enc.SeedObject(reflect.ValueOf(nilp)); err == nil {
		t.Fatal("seeding nil must fail")
	}
	dec := NewDecoder(&buf, Options{Registry: reg})
	if _, err := dec.SeedObject(reflect.ValueOf(42)); err == nil {
		t.Fatal("decoder seeding a scalar must fail")
	}
	if _, err := dec.SeedFrom(enc, 0); err == nil {
		t.Fatal("seeding from an empty encoder table must fail")
	}
	if _, err := dec.DecodeSeededContent(0); err == nil {
		t.Fatal("content for unseeded id must fail")
	}
}

func TestEncodeSeededContentValidation(t *testing.T) {
	reg := edgeRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if err := enc.EncodeSeededContent(0); err == nil {
		t.Fatal("content for unknown id must fail")
	}
}

func TestDisablePlanCacheRoundTrip(t *testing.T) {
	reg := edgeRegistry(t)
	opts := Options{Registry: reg, DisablePlanCache: true}
	tree := buildRandomTree(3, 32)
	got := roundTrip(t, opts, tree)
	eq, err := graph.Equal(graph.AccessExported, tree, got)
	if err != nil || !eq {
		t.Fatalf("portable round trip: %v %v", eq, err)
	}
}

func TestEngineStringAndUnknownDescriptor(t *testing.T) {
	if EngineV1.String() != "v1" || EngineV2.String() != "v2" {
		t.Fatal("engine names")
	}
	if Engine(9).String() == "" {
		t.Fatal("unknown engine must stringify")
	}
	// Unknown descriptor byte inside a stream.
	reg := edgeRegistry(t)
	var buf bytes.Buffer
	enc := NewEncoder(&buf, Options{Registry: reg})
	if err := enc.EncodeUint(0); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := append(buf.Bytes(), tagScalar, 250) // 250 is not a descriptor
	dec := NewDecoder(bytes.NewReader(raw), Options{Registry: reg})
	if _, err := dec.DecodeUint(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); !errors.Is(err, ErrBadStream) {
		t.Fatalf("want ErrBadStream, got %v", err)
	}
}

func TestEmptyContainers(t *testing.T) {
	reg := edgeRegistry(t)
	opts := Options{Registry: reg}
	if got := roundTrip(t, opts, []int{}).([]int); len(got) != 0 || got == nil {
		t.Fatalf("empty slice: %#v", got)
	}
	if got := roundTrip(t, opts, map[string]int{}).(map[string]int); len(got) != 0 || got == nil {
		t.Fatalf("empty map: %#v", got)
	}
}

func TestV1FieldNamesTolerateReordering(t *testing.T) {
	// V1 ships field names, so decode resolves them regardless of order —
	// demonstrated by the fact that a V1 stream round-trips correctly
	// (names resolved individually, not positionally).
	reg := edgeRegistry(t)
	opts := Options{Engine: EngineV1, Registry: reg}
	v := &wbag{Name: "x", Items: []int{1}, F: 1.5, B: true, U: 9}
	got := roundTrip(t, opts, v).(*wbag)
	if got.Name != "x" || got.F != 1.5 || !got.B || got.U != 9 {
		t.Fatalf("v1 named-field decode: %+v", got)
	}
}
