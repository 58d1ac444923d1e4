package wire

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/raceflag"
)

// kernelOptions returns matched option pairs: identical in every respect
// except the compiled-kernel switch. The wire format must be byte-for-byte
// identical between them; only the CPU/allocation profile may differ.
func kernelOptions(t *testing.T) (on, off Options) {
	reg := testRegistry(t)
	on = Options{Engine: EngineV2, Registry: reg}
	off = Options{Engine: EngineV2, Registry: reg, DisableKernels: true}
	return on, off
}

func wireZoo() []any {
	cyc := &wnode{Data: 1}
	cyc.Left = &wnode{Data: 2, Right: cyc}

	dag := &wnode{Data: 10}
	shared := &wnode{Data: 11}
	dag.Left, dag.Right = shared, shared

	bag := &wbag{
		Name:   "zoo",
		Items:  []int{1, 2, 3},
		Table:  map[string]*wnode{"x": {Data: 5}},
		Any:    int64(-9),
		Nested: inner{X: 1, Y: 2},
		Arr:    [3]int16{7, 8, 9},
		F:      2.5,
		C:      complex(1, -2),
		B:      true,
		U:      1 << 30,
	}

	return []any{
		nil,
		42,
		"interned", "interned", // string interning must behave identically
		cyc,
		dag,
		bag,
		[]*wnode{cyc, nil, dag},
		map[string]int{"a": 1, "b": 2},
		[]int{5, 4, 3},
		namedInt(3),
	}
}

// containerZoo holds the container shapes the kernel decoder fills in
// place: maps decode every entry into one reused key cell and one reused
// value cell, slices decode each element into its slot. Consecutive map
// values differ in which fields are zero or nil, so a cell that leaks a
// field from an earlier entry decodes a graph unequal to the original.
func containerZoo() []any {
	shared := &wnode{Data: 7}
	other := &wnode{Data: 8, Left: shared}
	return []any{
		// Keys sort a, b, c, d: b and d follow fuller values.
		map[string]wbag{
			"a": {Name: "a", Items: []int{1, 2}, Table: map[string]*wnode{"s": shared},
				Any: 5, Nested: inner{X: 1, Y: 2}, Arr: [3]int16{1, 2, 3}, F: 1.5, B: true, U: 9},
			"b": {},
			"c": {Any: "only-any", Nested: inner{Y: 4}},
			"d": {Items: []int{}},
		},
		map[int]*wnode{1: shared, 2: shared, 3: other, 4: nil, 5: other},
		map[string][]int{"full": {1, 2, 3}, "nil": nil, "one": {4}},
		[]inner{{X: 1, Y: 2}, {}, {Y: 3}},
		[]wbag{{Name: "x", Items: []int{1}, Any: 1}, {}, {Table: map[string]*wnode{"o": other}}},
		[]int{9, 0, 7},
	}
}

// TestKernelEncodeByteIdentity: a stream encoded with compiled kernels must
// be byte-for-byte identical to the generic reflective encoder's stream —
// the kernels are a pure performance substitution, never a format change.
func TestKernelEncodeByteIdentity(t *testing.T) {
	on, off := kernelOptions(t)
	encodeAll := func(opts Options) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		for _, v := range wireZoo() {
			if err := enc.Encode(v); err != nil {
				t.Fatalf("encode %T: %v", v, err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	fast, slow := encodeAll(on), encodeAll(off)
	assertSameStream(t, "fresh", fast, slow)

	// One pooled encoder carried across streams that differ in type set,
	// first-use order and access mode: every stream must still match a
	// fresh generic encoder byte for byte, so no slot → type-table entry
	// and no memoized kernel may survive a release.
	var buf bytes.Buffer
	enc := AcquireEncoder(&buf, on)
	defer ReleaseEncoder(enc)
	for i, st := range reuseStreams(t) {
		if i > 0 {
			buf.Reset()
			recycleEncoder(enc, &buf, st.on)
		}
		for _, v := range st.values {
			if err := enc.Encode(v); err != nil {
				t.Fatalf("%s: pooled encode %T: %v", st.name, v, err)
			}
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		assertSameStream(t, st.name, buf.Bytes(), encodeStream(t, st.off, st.values))
	}
}

func assertSameStream(t *testing.T, name string, fast, slow []byte) {
	t.Helper()
	if !bytes.Equal(fast, slow) {
		n := len(fast)
		if len(slow) < n {
			n = len(slow)
		}
		i := 0
		for i < n && fast[i] == slow[i] {
			i++
		}
		t.Fatalf("%s: kernel stream diverges from generic stream at byte %d (lens %d vs %d)", name, i, len(fast), len(slow))
	}
}

// encodeStream encodes values onto one fresh stream under opts.
func encodeStream(t *testing.T, opts Options, values []any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf, opts)
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// recycleEncoder does to e exactly what ReleaseEncoder followed by an
// AcquireEncoder that hands e back does, without the pool's freedom to
// return another encoder.
func recycleEncoder(e *Encoder, w io.Writer, opts Options) {
	e.reset()
	e.rebind(w, opts)
}

// recycleDecoder is recycleEncoder for a bytes decoder.
func recycleDecoder(d *Decoder, data []byte, opts Options) {
	d.reset()
	o := d.rebind(opts)
	d.r.resetBytes(data, o.MaxElems)
}

// reuseStream is one stream of a pooled-codec reuse sequence.
type reuseStream struct {
	name    string
	on, off Options // kernel and generic options, same access mode
	access  graph.AccessMode
	values  []any
}

// reuseStreams returns streams for one codec to carry in turn. They differ
// in type set and first-use order, and switch from AccessExported to
// AccessUnsafe: the last exported stream ends, and the unsafe one starts,
// with *hidden, so a kernel memo or a struct kernel kept from the
// exported stream (which skips hidden.secret) breaks the unsafe one.
func reuseStreams(t *testing.T) []reuseStream {
	on, off := kernelOptions(t)
	zoo := wireZoo()
	reversed := make([]any, 0, len(zoo)+len(containerZoo())+2)
	reversed = append(reversed, &hidden{Public: 1})
	reversed = append(reversed, containerZoo()...)
	for i := len(zoo) - 1; i >= 0; i-- {
		reversed = append(reversed, zoo[i])
	}
	reversed = append(reversed, &hidden{Public: 3})
	unsafeOn, unsafeOff := on, off
	unsafeOn.Access, unsafeOff.Access = graph.AccessUnsafe, graph.AccessUnsafe
	return []reuseStream{
		{name: "exported/zoo", on: on, off: off, access: graph.AccessExported, values: zoo},
		{name: "exported/reversed+containers", on: on, off: off, access: graph.AccessExported, values: reversed},
		{name: "unsafe/hidden-first", on: unsafeOn, off: unsafeOff, access: graph.AccessUnsafe, values: []any{
			&hidden{Public: 2, secret: "s"},
			map[string]*hidden{"a": {Public: 1, secret: "x"}, "b": {}, "c": {secret: "y"}},
			[]hidden{{secret: "z"}, {Public: 4}},
			wireZoo()[5], // wbag
			containerZoo()[1],
		}},
		{name: "exported/containers", on: on, off: off, access: graph.AccessExported, values: containerZoo()},
	}
}

// TestKernelDecodeEquivalence: both decoder paths must reconstruct graphs
// Equal to each other and to the original, from the same byte stream,
// regardless of which encoder produced it.
func TestKernelDecodeEquivalence(t *testing.T) {
	on, off := kernelOptions(t)
	for i, v := range append(wireZoo(), containerZoo()...) {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, on)
		if err := enc.Encode(v); err != nil {
			t.Fatalf("zoo[%d]: encode: %v", i, err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()

		decFast, err := NewDecoder(bytes.NewReader(stream), on).Decode()
		if err != nil {
			t.Fatalf("zoo[%d]: kernel decode: %v", i, err)
		}
		decSlow, err := NewDecoder(bytes.NewReader(stream), off).Decode()
		if err != nil {
			t.Fatalf("zoo[%d]: generic decode: %v", i, err)
		}
		for name, got := range map[string]any{"kernel": decFast, "generic": decSlow} {
			eq, err := graph.Equal(graph.AccessExported, v, got)
			if err != nil || !eq {
				t.Fatalf("zoo[%d]: %s decode not Equal to original (%v %v)", i, name, eq, err)
			}
		}
	}

	// One pooled decoder carried across the reuse streams: a struct kernel
	// kept next to a type-table index of an earlier stream must not decode
	// this stream's entry at that index.
	var dec *Decoder
	defer func() { ReleaseDecoder(dec) }()
	for i, st := range reuseStreams(t) {
		stream := encodeStream(t, st.off, st.values)
		if i == 0 {
			dec = AcquireDecoderBytes(stream, st.on)
		} else {
			recycleDecoder(dec, stream, st.on)
		}
		for j, v := range st.values {
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s[%d]: pooled decode: %v", st.name, j, err)
			}
			if eq, err := graph.Equal(st.access, v, got); err != nil || !eq {
				t.Fatalf("%s[%d]: pooled decode of %T not Equal to original (%v %v)", st.name, j, v, eq, err)
			}
		}
	}
}

// TestEncodeAllocsSteadyState: after the kernel cache is warm, a pooled
// encode of a cached type into a reused buffer must stay within a small
// fixed allocation budget.
func TestEncodeAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	on, _ := kernelOptions(t)
	tree := &wnode{Data: 1}
	cur := tree
	for i := 2; i <= 64; i++ {
		cur.Left = &wnode{Data: i}
		cur = cur.Left
	}
	var buf bytes.Buffer
	encodeOnce := func() {
		buf.Reset()
		enc := AcquireEncoder(&buf, on)
		if err := enc.Encode(tree); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		ReleaseEncoder(enc)
	}
	for i := 0; i < 5; i++ {
		encodeOnce() // warm the kernel cache, the codec pool, and the buffer
	}
	avg := testing.AllocsPerRun(20, func() { encodeOnce() })
	// The per-node work (object registration, varints, field dispatch) must
	// all run allocation-free; a handful of allocs of slack covers
	// map-internal growth in the identity table.
	const budget = 8
	if avg > budget {
		t.Fatalf("steady-state encode allocates %.1f/run, budget %d", avg, budget)
	}
}

// freshTypeLen makes every run of the first-compile stress below build
// array types no earlier run (or test) compiled.
var freshTypeLen atomic.Int64

// TestKernelCodecConcurrentStress runs pooled encode/decode round trips
// from many goroutines sharing the compiled-kernel caches and codec pools
// (exercised under -race by make test).
func TestKernelCodecConcurrentStress(t *testing.T) {
	on, off := kernelOptions(t)

	// First compiles at once: goroutines released together encode values
	// of types no kernel exists for yet, so concurrent compiles assign
	// slots side by side; every stream must still match the generic one.
	t.Run("fresh-types", func(t *testing.T) {
		base := 1000 + int(freshTypeLen.Add(3)*3)
		var fresh []reflect.Type
		for n := base; n < base+3; n++ {
			arr := reflect.ArrayOf(n, reflect.TypeOf(int16(0)))
			fresh = append(fresh, arr, reflect.SliceOf(arr), reflect.MapOf(reflect.TypeOf(""), arr))
		}
		values := make([]any, 0, len(fresh))
		for i, ft := range fresh {
			v := reflect.New(ft)
			switch ft.Kind() {
			case reflect.Array:
				v.Elem().Index(i).SetInt(int64(i + 1))
			case reflect.Slice:
				v.Elem().Set(reflect.MakeSlice(ft, 2, 2))
			case reflect.Map:
				v.Elem().Set(reflect.MakeMap(ft))
				v.Elem().SetMapIndex(reflect.ValueOf("k"), reflect.New(ft.Elem()).Elem())
			}
			values = append(values, v.Interface())
		}
		want := encodeStream(t, off, values)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				// Each goroutine walks the types in its own order.
				order := make([]any, len(values))
				for i := range values {
					order[i] = values[(i+g)%len(values)]
				}
				var buf bytes.Buffer
				enc := AcquireEncoder(&buf, on)
				defer ReleaseEncoder(enc)
				for _, v := range order {
					if err := enc.Encode(v); err != nil {
						t.Errorf("encode: %v", err)
						return
					}
				}
				if err := enc.Flush(); err != nil {
					t.Error(err)
					return
				}
				var gen bytes.Buffer
				genEnc := NewEncoder(&gen, off)
				for _, v := range order {
					if err := genEnc.Encode(v); err != nil {
						t.Errorf("generic encode: %v", err)
						return
					}
				}
				if err := genEnc.Flush(); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf.Bytes(), gen.Bytes()) {
					t.Errorf("goroutine %d: kernel stream differs from generic stream", g)
				}
				dec := AcquireDecoderBytes(buf.Bytes(), on)
				defer ReleaseDecoder(dec)
				for _, v := range order {
					got, err := dec.Decode()
					if err != nil {
						t.Errorf("decode: %v", err)
						return
					}
					if eq, err := graph.Equal(graph.AccessExported, v, got); err != nil || !eq {
						t.Errorf("goroutine %d: round trip of %T not Equal (%v %v)", g, v, eq, err)
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		if got := encodeStream(t, on, values); !bytes.Equal(got, want) {
			t.Fatal("kernel stream differs from generic stream after concurrent first compiles")
		}
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				bag := &wbag{
					Name:  fmt.Sprintf("g%d-i%d", g, i),
					Items: []int{g, i},
					Table: map[string]*wnode{"n": {Data: g*100 + i}},
					Any:   "payload",
				}
				var buf bytes.Buffer
				enc := AcquireEncoder(&buf, on)
				err := enc.Encode(bag)
				if err == nil {
					err = enc.Flush()
				}
				ReleaseEncoder(enc)
				if err != nil {
					t.Errorf("encode: %v", err)
					continue
				}
				dec := AcquireDecoder(bytes.NewReader(buf.Bytes()), on)
				out, err := dec.Decode()
				ReleaseDecoder(dec)
				if err != nil {
					t.Errorf("decode: %v", err)
					continue
				}
				if eq, err := graph.Equal(graph.AccessExported, bag, out); err != nil || !eq {
					t.Errorf("round trip not Equal (%v %v)", eq, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMapEncodingDeterministic: map entries serialize in canonical key
// order (mapkeys.go), so repeated encodings of the same value — on either
// encoder path — produce identical bytes. Before keys were sorted, every
// multi-key map inherited Go's randomized iteration order and this test
// (and TestKernelEncodeByteIdentity) failed intermittently.
func TestMapEncodingDeterministic(t *testing.T) {
	on, off := kernelOptions(t)
	value := map[string]any{
		"alpha": 1, "bravo": 2, "charlie": 3, "delta": 4,
		"echo": map[string]int{"x": 1, "y": 2, "z": 3},
		"fox":  &wnode{Data: 9},
		"golf": []int{3, 1, 4}, "hotel": true,
	}
	encodeOnce := func(opts Options) []byte {
		var buf bytes.Buffer
		enc := NewEncoder(&buf, opts)
		if err := enc.Encode(value); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := encodeOnce(on)
	for i := 0; i < 20; i++ {
		for name, opts := range map[string]Options{"kernel": on, "generic": off} {
			if got := encodeOnce(opts); !bytes.Equal(got, want) {
				t.Fatalf("iteration %d: %s stream differs from first kernel stream", i, name)
			}
		}
	}
}
