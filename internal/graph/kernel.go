package graph

import (
	"fmt"
	"reflect"
	"sync"
)

// This file implements the kernel compiler: once per (reflect.Type,
// AccessMode) a closure-based program is compiled that performs the walk,
// deep-copy, and deep-equal traversals as straight-line per-field operations,
// in the style of encoding/gob's compiled engines. The generic visitors in
// walk.go, copy.go, and equal.go re-dispatch on reflect.Kind and re-derive
// field metadata (reflect.Type.Field allocates a StructField per call) at
// every node; a kernel resolves all of that exactly once at compile time.
// This is the Go realization of the paper's Section 5.3.1 observation that
// "caching reflection information aggressively" is what separates the
// optimized NRMI implementation from the portable one.
//
// Semantics are identical to the generic paths by construction: every op
// mirrors the corresponding generic case, including depth accounting, error
// values, and the order of side effects. kernel_test.go cross-checks the two
// implementations over a type zoo.

// walkOp performs Walker.visit for a value of the op's static type.
type walkOp func(w *Walker, v reflect.Value, depth int) error

// copyOp performs Copier.copyValue for a value of the op's static type.
type copyOp func(c *Copier, v reflect.Value, depth int) (reflect.Value, error)

// eqOp performs equaler.equal for two values of the op's static type.
type eqOp func(e *equaler, a, b reflect.Value, depth int) (bool, error)

// kernel is the compiled program for one (type, mode) pair. Ops are invoked
// through the kernel pointer so recursive types resolve naturally: a child op
// compiled while its parent is in progress holds the parent's *kernel, whose
// op fields are assigned before the kernel is published.
type kernel struct {
	t reflect.Type

	walk walkOp
	// walkContents mirrors Walker.visitContents for identity-bearing kinds
	// (used by EnsureContents, which must re-enter an already-registered
	// object).
	walkContents walkOp

	cpy copyOp

	eq eqOp
	// eqContents mirrors equaler.equalContents (entered after the aliasing
	// tables have been extended for this pair).
	eqContents eqOp
}

type kernelKey struct {
	t    reflect.Type
	mode AccessMode
}

// kernelCache memoizes compiled kernels process-wide. Like the struct plan
// cache it is keyed by type and access mode only — registry bindings do not
// participate (see the planCache comment in internal/wire/plan.go for how
// the caches interact with RegisterStrict). Duplicate concurrent compiles
// of the same type are harmless: compilation is deterministic and the last
// store wins.
var kernelCache sync.Map // kernelKey -> *kernel

// kernelFor returns the compiled kernel for t under mode, compiling (and
// publishing) it on first use.
func kernelFor(t reflect.Type, mode AccessMode) *kernel {
	key := kernelKey{t: t, mode: mode}
	if k, ok := kernelCache.Load(key); ok {
		return k.(*kernel)
	}
	// Compile with a session-local table so recursive types terminate; the
	// whole session is published only once every kernel in it is complete.
	session := make(map[reflect.Type]*kernel)
	k := compileKernel(t, mode, session)
	for st, sk := range session {
		kernelCache.Store(kernelKey{t: st, mode: mode}, sk)
	}
	return k
}

// compileKernel builds the kernel for t, recording it in session before
// descending so cyclic types reuse the in-progress kernel.
func compileKernel(t reflect.Type, mode AccessMode, session map[reflect.Type]*kernel) *kernel {
	if k, ok := kernelCache.Load(kernelKey{t: t, mode: mode}); ok {
		return k.(*kernel)
	}
	if k, ok := session[t]; ok {
		return k
	}
	k := &kernel{t: t}
	session[t] = k

	switch t.Kind() {
	case reflect.Ptr:
		compilePtr(k, t, mode, session)
	case reflect.Map:
		compileMap(k, t, mode, session)
	case reflect.Slice:
		compileSlice(k, t, mode, session)
	case reflect.Interface:
		compileInterface(k, t, mode)
	case reflect.Struct:
		compileStruct(k, t, mode, session)
	case reflect.Array:
		compileArray(k, t, mode, session)
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128,
		reflect.String:
		compileScalar(k, t)
	default:
		compileForbidden(k, t)
	}
	return k
}

// compileForbidden handles chan, func, unsafe.Pointer, and uintptr: every
// traversal of such a value fails, exactly as the generic paths do.
func compileForbidden(k *kernel, t reflect.Type) {
	walkErr := fmt.Errorf("%w: %s", ErrNotSerializable, t)
	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		return walkErr
	}
	k.walkContents = contentsKindError(t.Kind())
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		return reflect.Value{}, walkErr
	}
	eqErr := fmt.Errorf("%w: cannot compare kind %s", ErrNotSerializable, t.Kind())
	k.eq = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if depth > maxDepth {
			return false, ErrDepthExceeded
		}
		return false, eqErr
	}
	k.eqContents = eqContentsPanic(t.Kind())
}

// contentsKindError mirrors the generic visitContents default branch for
// kinds that carry no identity.
func contentsKindError(kind reflect.Kind) walkOp {
	err := fmt.Errorf("%w: visitContents on non-identity kind %s", ErrNotSerializable, kind)
	return func(w *Walker, v reflect.Value, depth int) error { return err }
}

// eqContentsPanic mirrors the generic equalContents default branch.
func eqContentsPanic(kind reflect.Kind) eqOp {
	return func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		panic(fmt.Sprintf("graph: equalContents on %s", kind))
	}
}

func compileScalar(k *kernel, t reflect.Type) {
	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		return nil
	}
	k.walkContents = contentsKindError(t.Kind())
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		return launder(v), nil
	}
	k.eq = compileScalarEq(t)
	k.eqContents = eqContentsPanic(t.Kind())
}

func compileScalarEq(t reflect.Type) eqOp {
	var cmp func(a, b reflect.Value) bool
	switch t.Kind() {
	case reflect.Bool:
		cmp = func(a, b reflect.Value) bool { return a.Bool() == b.Bool() }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		cmp = func(a, b reflect.Value) bool { return a.Int() == b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		cmp = func(a, b reflect.Value) bool { return a.Uint() == b.Uint() }
	case reflect.Float32, reflect.Float64:
		cmp = func(a, b reflect.Value) bool { return a.Float() == b.Float() }
	case reflect.Complex64, reflect.Complex128:
		cmp = func(a, b reflect.Value) bool { return a.Complex() == b.Complex() }
	case reflect.String:
		cmp = func(a, b reflect.Value) bool { return a.String() == b.String() }
	}
	return func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if depth > maxDepth {
			return false, ErrDepthExceeded
		}
		return cmp(a, b), nil
	}
}

func compilePtr(k *kernel, t reflect.Type, mode AccessMode, session map[reflect.Type]*kernel) {
	elemK := compileKernel(t.Elem(), mode, session)
	zero := reflect.Zero(t)
	elemT := t.Elem()

	k.walkContents = func(w *Walker, v reflect.Value, depth int) error {
		return elemK.walk(w, v.Elem(), depth+1)
	}
	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		if v.IsNil() {
			return nil
		}
		if _, _, err := w.lm.Add(v); err != nil {
			return err
		}
		id := identOf(v)
		if w.done[id] {
			return nil
		}
		w.done[id] = true
		return elemK.walk(w, v.Elem(), depth+1)
	}
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		if v.IsNil() {
			return zero, nil
		}
		if out, ok := c.memo[identOf(v)]; ok {
			return out, nil
		}
		out := reflect.New(elemT)
		c.memo[identOf(v)] = out // memo before descending: cycles terminate
		elem, err := elemK.cpy(c, v.Elem(), depth+1)
		if err != nil {
			return reflect.Value{}, err
		}
		out.Elem().Set(elem)
		return out, nil
	}
	k.eqContents = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		return elemK.eq(e, a.Elem(), b.Elem(), depth+1)
	}
	k.eq = identityEq(k)
}

// identityEq builds the shared ptr/map/slice equality op: nil agreement,
// aliasing-structure bookkeeping, then the kind-specific contents op.
func identityEq(k *kernel) eqOp {
	return func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if depth > maxDepth {
			return false, ErrDepthExceeded
		}
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil(), nil
		}
		ida, idb := identOf(a), identOf(b)
		mappedB, seenA := e.aToB[ida]
		mappedA, seenB := e.bToA[idb]
		if seenA || seenB {
			return seenA && seenB && mappedB == idb && mappedA == ida, nil
		}
		e.aToB[ida] = idb
		e.bToA[idb] = ida
		return k.eqContents(e, a, b, depth)
	}
}

func compileMap(k *kernel, t reflect.Type, mode AccessMode, session map[reflect.Type]*kernel) {
	keyK := compileKernel(t.Key(), mode, session)
	elemK := compileKernel(t.Elem(), mode, session)
	zero := reflect.Zero(t)

	k.walkContents = func(w *Walker, v reflect.Value, depth int) error {
		iter := acquireMapIter(v)
		defer releaseMapIter(iter)
		for iter.Next() {
			if err := keyK.walk(w, iter.Key(), depth+1); err != nil {
				return err
			}
			if err := elemK.walk(w, iter.Value(), depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		if v.IsNil() {
			return nil
		}
		if _, _, err := w.lm.Add(v); err != nil {
			return err
		}
		id := identOf(v)
		if w.done[id] {
			return nil
		}
		w.done[id] = true
		return k.walkContents(w, v, depth)
	}
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		if v.IsNil() {
			return zero, nil
		}
		if out, ok := c.memo[identOf(v)]; ok {
			return out, nil
		}
		out := reflect.MakeMapWithSize(t, v.Len())
		c.memo[identOf(v)] = out
		iter := acquireMapIter(v)
		defer releaseMapIter(iter)
		for iter.Next() {
			ck, err := keyK.cpy(c, iter.Key(), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			cv, err := elemK.cpy(c, iter.Value(), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			out.SetMapIndex(ck, cv)
		}
		return out, nil
	}
	var keyErr error
	if hasIdentityBearing(t.Key()) {
		keyErr = fmt.Errorf("graph: cannot compare maps with identity-bearing key type %s", t.Key())
	}
	k.eqContents = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if a.Len() != b.Len() {
			return false, nil
		}
		if keyErr != nil {
			return false, keyErr
		}
		iter := acquireMapIter(a)
		defer releaseMapIter(iter)
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if !bv.IsValid() {
				return false, nil
			}
			eq, err := elemK.eq(e, iter.Value(), bv, depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	}
	k.eq = identityEq(k)
}

func compileSlice(k *kernel, t reflect.Type, mode AccessMode, session map[reflect.Type]*kernel) {
	et := t.Elem()
	zero := reflect.Zero(t)

	if !hasIdentityBearing(et) {
		// Leaf fast path: the element type cannot reach further objects, so
		// the walk degenerates to the (precomputed) element-type check and
		// element loops never dispatch per-element kernels.
		leafErr := checkLeafType(et)
		k.walkContents = func(w *Walker, v reflect.Value, depth int) error {
			return leafErr
		}
	} else {
		elemK := compileKernel(et, mode, session)
		k.walkContents = func(w *Walker, v reflect.Value, depth int) error {
			for i := 0; i < v.Len(); i++ {
				if err := elemK.walk(w, v.Index(i), depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		if v.IsNil() {
			return nil
		}
		if _, _, err := w.lm.Add(v); err != nil {
			return err
		}
		id := identOf(v)
		if w.done[id] {
			return nil
		}
		w.done[id] = true
		return k.walkContents(w, v, depth)
	}

	elemK := compileKernel(et, mode, session)
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		if v.IsNil() {
			return zero, nil
		}
		if out, ok := c.memo[identOf(v)]; ok {
			if out.Len() != v.Len() {
				return reflect.Value{}, fmt.Errorf("%w: lengths %d and %d share storage",
					ErrSliceOverlap, out.Len(), v.Len())
			}
			return out, nil
		}
		out := reflect.MakeSlice(t, v.Len(), v.Len())
		c.memo[identOf(v)] = out
		for i := 0; i < v.Len(); i++ {
			ce, err := elemK.cpy(c, v.Index(i), depth+1)
			if err != nil {
				return reflect.Value{}, err
			}
			out.Index(i).Set(ce)
		}
		return out, nil
	}
	k.eqContents = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if a.Len() != b.Len() {
			return false, nil
		}
		for i := 0; i < a.Len(); i++ {
			eq, err := elemK.eq(e, a.Index(i), b.Index(i), depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	}
	k.eq = identityEq(k)
}

func compileInterface(k *kernel, t reflect.Type, mode AccessMode) {
	k.walkContents = contentsKindError(reflect.Interface)
	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		if v.IsNil() {
			return nil
		}
		elem := v.Elem()
		return kernelFor(elem.Type(), w.Access).walk(w, elem, depth+1)
	}
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		if v.IsNil() {
			return reflect.Zero(t), nil
		}
		elem := v.Elem()
		inner, err := kernelFor(elem.Type(), c.Access).cpy(c, elem, depth+1)
		if err != nil {
			return reflect.Value{}, err
		}
		out := reflect.New(t).Elem()
		out.Set(inner)
		return out, nil
	}
	k.eq = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if depth > maxDepth {
			return false, ErrDepthExceeded
		}
		if a.IsNil() || b.Kind() != reflect.Interface || b.IsNil() {
			return a.Kind() == b.Kind() && a.IsNil() && b.IsNil(), nil
		}
		ae, be := a.Elem(), b.Elem()
		if ae.Type() != be.Type() {
			return false, nil
		}
		return kernelFor(ae.Type(), e.access).eq(e, ae, be, depth+1)
	}
	k.eqContents = eqContentsPanic(reflect.Interface)
}

func compileArray(k *kernel, t reflect.Type, mode AccessMode, session map[reflect.Type]*kernel) {
	et := t.Elem()
	n := t.Len()
	k.walkContents = contentsKindError(reflect.Array)
	k.eqContents = eqContentsPanic(reflect.Array)

	if !hasIdentityBearing(et) {
		leafErr := checkLeafType(et)
		k.walk = func(w *Walker, v reflect.Value, depth int) error {
			if depth > maxDepth {
				return ErrDepthExceeded
			}
			return leafErr
		}
		k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
			if depth > maxDepth {
				return reflect.Value{}, ErrDepthExceeded
			}
			out := reflect.New(t).Elem()
			out.Set(launder(v))
			return out, nil
		}
	} else {
		elemK := compileKernel(et, mode, session)
		k.walk = func(w *Walker, v reflect.Value, depth int) error {
			if depth > maxDepth {
				return ErrDepthExceeded
			}
			for i := 0; i < n; i++ {
				if err := elemK.walk(w, v.Index(i), depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
			if depth > maxDepth {
				return reflect.Value{}, ErrDepthExceeded
			}
			out := reflect.New(t).Elem()
			for i := 0; i < n; i++ {
				ce, err := elemK.cpy(c, v.Index(i), depth+1)
				if err != nil {
					return reflect.Value{}, err
				}
				out.Index(i).Set(ce)
			}
			return out, nil
		}
	}
	elemK := compileKernel(et, mode, session)
	k.eq = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if depth > maxDepth {
			return false, ErrDepthExceeded
		}
		for i := 0; i < n; i++ {
			eq, err := elemK.eq(e, a.Index(i), b.Index(i), depth+1)
			if err != nil || !eq {
				return eq, err
			}
		}
		return true, nil
	}
}

// structField is one compiled field program. The accessor logic of
// fieldForRead/fieldForWrite is resolved at compile time into one of three
// shapes: plain exported access, unsafe (laundered) access, or the
// AccessExported skip-if-zero discipline.
type structField struct {
	index int
	k     *kernel
	// launder is true for unexported fields under AccessUnsafe.
	launder bool
	// skipZero is true for unexported fields under AccessExported: the
	// field is skipped when zero and poisons the traversal otherwise.
	skipZero bool
	// unexpErr is the precomputed ErrUnexportedField error for skipZero
	// fields.
	unexpErr error
}

func compileStruct(k *kernel, t reflect.Type, mode AccessMode, session map[reflect.Type]*kernel) {
	fields := make([]structField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		f := structField{index: i}
		if sf.IsExported() {
			f.k = compileKernel(sf.Type, mode, session)
		} else if mode == AccessExported {
			f.skipZero = true
			f.unexpErr = fmt.Errorf("%w: field %s.%s", ErrUnexportedField, t, sf.Name)
		} else {
			f.launder = true
			f.k = compileKernel(sf.Type, mode, session)
		}
		fields = append(fields, f)
	}
	k.walkContents = contentsKindError(reflect.Struct)
	k.eqContents = eqContentsPanic(reflect.Struct)

	k.walk = func(w *Walker, v reflect.Value, depth int) error {
		if depth > maxDepth {
			return ErrDepthExceeded
		}
		sv := structForRead(v, mode)
		for i := range fields {
			f := &fields[i]
			fv := sv.Field(f.index)
			switch {
			case f.skipZero:
				if !fv.IsZero() {
					return f.unexpErr
				}
			case f.launder:
				if err := f.k.walk(w, launder(fv), depth+1); err != nil {
					return err
				}
			default:
				if err := f.k.walk(w, fv, depth+1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	k.cpy = func(c *Copier, v reflect.Value, depth int) (reflect.Value, error) {
		if depth > maxDepth {
			return reflect.Value{}, ErrDepthExceeded
		}
		src := structForRead(v, mode)
		out := reflect.New(t).Elem()
		for i := range fields {
			f := &fields[i]
			fv := src.Field(f.index)
			switch {
			case f.skipZero:
				if !fv.IsZero() {
					return reflect.Value{}, f.unexpErr
				}
			case f.launder:
				cf, err := f.k.cpy(c, launder(fv), depth+1)
				if err != nil {
					return reflect.Value{}, err
				}
				launder(out.Field(f.index)).Set(cf)
			default:
				cf, err := f.k.cpy(c, fv, depth+1)
				if err != nil {
					return reflect.Value{}, err
				}
				out.Field(f.index).Set(cf)
			}
		}
		return out, nil
	}
	k.eq = func(e *equaler, a, b reflect.Value, depth int) (bool, error) {
		if depth > maxDepth {
			return false, ErrDepthExceeded
		}
		sa, sb := structForRead(a, mode), structForRead(b, mode)
		for i := range fields {
			f := &fields[i]
			switch {
			case f.skipZero:
				if !sa.Field(f.index).IsZero() {
					return false, f.unexpErr
				}
				if !sb.Field(f.index).IsZero() {
					return false, f.unexpErr
				}
			case f.launder:
				eq, err := f.k.eq(e, launder(sa.Field(f.index)), launder(sb.Field(f.index)), depth+1)
				if err != nil || !eq {
					return eq, err
				}
			default:
				eq, err := f.k.eq(e, sa.Field(f.index), sb.Field(f.index), depth+1)
				if err != nil || !eq {
					return eq, err
				}
			}
		}
		return true, nil
	}
}

// mapIterPool recycles reflect.MapIter values: MapRange allocates a fresh
// iterator per call, which the kernels' map loops would otherwise pay on
// every map node.
var mapIterPool = sync.Pool{New: func() any { return new(reflect.MapIter) }}

func acquireMapIter(v reflect.Value) *reflect.MapIter {
	iter := mapIterPool.Get().(*reflect.MapIter)
	iter.Reset(v)
	return iter
}

func releaseMapIter(iter *reflect.MapIter) {
	iter.Reset(reflect.Value{}) // drop the map reference before pooling
	mapIterPool.Put(iter)
}
