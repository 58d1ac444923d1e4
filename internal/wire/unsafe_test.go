package wire

import (
	"reflect"
	"testing"

	"nrmi/internal/graph"
)

// unsafeHolder reaches structs with unexported fields through values Go
// does not make addressable: map values and interface contents.
type unsafeHolder struct {
	ByKey map[string]hidden
	Boxed any
}

func newUnsafeHolder() *unsafeHolder {
	return &unsafeHolder{
		ByKey: map[string]hidden{
			"a": {Public: 1, secret: "one"},
			"b": {Public: 2, secret: "two"},
		},
		Boxed: hidden{Public: 3, secret: "three"},
	}
}

// TestUnsafeNonAddressableStructs: under AccessUnsafe, a struct with
// unexported fields stored as a map value or inside an interface is
// walked, copied, compared and round-tripped by every engine without
// panicking, and its unexported fields survive.
func TestUnsafeNonAddressableStructs(t *testing.T) {
	roots := map[string]func() any{
		"map value":       func() any { return newUnsafeHolder().ByKey },
		"interface value": func() any { return []any{newUnsafeHolder().Boxed} },
		"holder":          func() any { return newUnsafeHolder() },
	}
	for name, root := range roots {
		t.Run(name, func(t *testing.T) {
			t.Run("graph.Walk", func(t *testing.T) {
				if _, err := graph.Walk(graph.AccessUnsafe, root()); err != nil {
					t.Fatal(err)
				}
			})
			t.Run("graph.Copy", func(t *testing.T) {
				v := root()
				cp, err := graph.Copy(graph.AccessUnsafe, v)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cp, v) {
					t.Fatalf("copy %+v differs from %+v", cp, v)
				}
			})
			t.Run("graph.Equal", func(t *testing.T) {
				eq, err := graph.Equal(graph.AccessUnsafe, root(), root())
				if err != nil || !eq {
					t.Fatalf("Equal = %v, %v; want true", eq, err)
				}
			})
			engines := map[string]Options{
				"v1":           {Engine: EngineV1},
				"v2-kernels":   {Engine: EngineV2},
				"v2-nokernels": {Engine: EngineV2, DisableKernels: true},
				"v3":           {Engine: EngineV3},
			}
			for eng, opts := range engines {
				t.Run(eng, func(t *testing.T) {
					opts.Registry = testRegistry(t)
					if err := opts.Registry.Register("unsafeHolder", unsafeHolder{}); err != nil {
						t.Fatal(err)
					}
					opts.Access = graph.AccessUnsafe
					v := root()
					out := roundTrip(t, opts, v)
					if !reflect.DeepEqual(out, v) {
						t.Fatalf("round trip %+v differs from %+v", out, v)
					}
				})
			}
		})
	}
}
