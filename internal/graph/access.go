package graph

import (
	"fmt"
	"reflect"
	"unsafe"
)

// launder returns a value equivalent to v that can be read through
// reflect.Value.Interface and, when v is addressable, written through Set.
// Values reached through unexported struct fields carry a read-only flag;
// re-deriving the value from its address clears it. This is the Go analog of
// the privileged field access the paper's optimized implementation obtains
// from the JVM's Unsafe class (Section 5.3.1).
func launder(v reflect.Value) reflect.Value {
	if v.CanInterface() {
		return v
	}
	if v.CanAddr() {
		return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	// Unreachable by construction: read-only values only arise from
	// unexported fields, and every struct goes through structForRead
	// before its fields are visited, which makes it addressable whenever
	// its unexported fields are read, so a read-only, non-addressable
	// value cannot appear.
	panic(fmt.Sprintf("graph: cannot launder non-addressable read-only %s", v.Type()))
}

// structForRead returns struct value v prepared for reading its fields
// under mode. launder re-derives an unexported field from its address, so
// under AccessUnsafe a struct Go does not make addressable (a map value,
// an interface's dynamic value) is first copied into an addressable
// temporary. AccessExported never reads unexported fields and never pays
// for the copy.
func structForRead(v reflect.Value, mode AccessMode) reflect.Value {
	if mode == AccessUnsafe && !v.CanAddr() {
		tmp := reflect.New(v.Type()).Elem()
		tmp.Set(v)
		return tmp
	}
	return launder(v)
}

// fieldForRead returns the i-th field of struct value sv prepared for
// reading under the given access mode. ok is false when the field must be
// skipped (unexported field holding its zero value in AccessExported mode).
func fieldForRead(sv reflect.Value, i int, mode AccessMode) (f reflect.Value, ok bool, err error) {
	sf := sv.Type().Field(i)
	f = sv.Field(i)
	if sf.IsExported() {
		return f, true, nil
	}
	if mode == AccessExported {
		if f.IsZero() {
			return reflect.Value{}, false, nil
		}
		return reflect.Value{}, false, fmt.Errorf("%w: field %s.%s",
			ErrUnexportedField, sv.Type(), sf.Name)
	}
	return launder(f), true, nil
}

// fieldForWrite returns the i-th field of the addressable struct value sv
// prepared for writing. ok is false when the field must be skipped.
func fieldForWrite(sv reflect.Value, i int, mode AccessMode) (f reflect.Value, ok bool, err error) {
	sf := sv.Type().Field(i)
	f = sv.Field(i)
	if sf.IsExported() {
		return f, true, nil
	}
	if mode == AccessExported {
		return reflect.Value{}, false, nil
	}
	if !f.CanAddr() {
		return reflect.Value{}, false, fmt.Errorf(
			"graph: cannot write unexported field %s.%s of unaddressable struct",
			sv.Type(), sf.Name)
	}
	return launder(f), true, nil
}
