package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"

	"nrmi/internal/graph"
)

// restoreSet is the set of request stream IDs a copy-restore call
// restores: every object reachable from the restorable arguments at issue
// time, in ascending ID order. Both endpoints derive it with the same rule
// (PROTOCOL.md §2.1), so the set never crosses the wire:
//
//   - Prefix (the common case). The codec assigns IDs in first-encounter
//     order, so while no by-copy argument has registered an object ahead
//     of a restorable one, the set is exactly the ID prefix [0, n) the
//     restorable arguments registered. n is captured during the codec
//     pass itself (optimization 1 of the paper, Section 5.2.4): no walk,
//     no identity map, no sort.
//   - Walk (the fallback). A restorable argument that follows a by-copy
//     argument which registered objects may share some of them, so the
//     set is no longer a prefix; the endpoint walks the restorable roots
//     and maps each object back to its stream ID.
type restoreSet struct {
	// n is the table length after the last restorable argument.
	n int
	// walk records that a by-copy argument registered objects before a
	// restorable one: the set is ids, not the prefix [0, n).
	walk bool
	// ids is the walked set, ascending; unused for a prefix set.
	ids []int
}

// noteRestorable applies the rule to one restorable argument whose codec
// pass grew the object table from before to after entries. Any object
// registered since the previous restorable argument came from a by-copy
// argument and breaks the prefix.
func (r *restoreSet) noteRestorable(before, after int) {
	if before != r.n {
		r.walk = true
	}
	r.n = after
}

// Len returns the number of objects in the set.
func (r *restoreSet) Len() int {
	if r.walk {
		return len(r.ids)
	}
	return r.n
}

// id returns the stream ID of the i-th object of the set: its restore
// protocol index i maps to this entry of the request's object table.
func (r *restoreSet) id(i int) int {
	if r.walk {
		return r.ids[i]
	}
	return i
}

// restoreWalks counts the reachability walks over restorable roots that
// either endpoint performs: the walk-rule fallback and the PolicyDCE
// post-call walk. Tests pin that a prefix-rule call performs none.
var restoreWalks atomic.Int64

// walkIDs walks the restorable roots and calls visit once per reachable
// object with the stream ID lookup reports for it (ok=false: absent from
// the object table, which only objects the method body allocated can be).
// A batch supplies its shared walker (reset between uses, released with
// the batch); otherwise the walker is pooled under the compiled kernels
// and fresh without them, preserving the portable ablation's allocation
// profile. Only stream IDs leave, so the pooled walker's no-retention
// contract holds.
func walkIDs(roots []reflect.Value, access graph.AccessMode, kernels bool, b *Batch,
	lookup func(reflect.Value) (int, bool), visit func(id int, ok bool) error) error {
	restoreWalks.Add(1)
	var w *graph.Walker
	switch {
	case b != nil:
		w = b.walker(access, kernels)
	case kernels:
		w = graph.AcquireWalker(access)
		defer graph.ReleaseWalker(w)
	default:
		w = graph.NewWalker(access)
		w.NoKernels = true
	}
	for _, root := range roots {
		if !root.IsValid() {
			continue
		}
		if err := w.RootValue(root); err != nil {
			return fmt.Errorf("core: walking restorable arguments: %w", err)
		}
	}
	for _, obj := range w.LinearMap().Objects() {
		id, ok := lookup(obj.Ref)
		if err := visit(id, ok); err != nil {
			return err
		}
	}
	return nil
}

// walkSet is the walk rule, identical on both endpoints: the ascending
// stream IDs of every object reachable from the restorable roots.
func walkSet(roots []reflect.Value, access graph.AccessMode, kernels bool, b *Batch,
	lookup func(reflect.Value) (int, bool)) ([]int, error) {
	var ids []int
	err := walkIDs(roots, access, kernels, b, lookup, func(id int, ok bool) error {
		if !ok {
			// The pre-call roots were themselves encoded or decoded.
			return fmt.Errorf("%w: restorable object missing from the object table", ErrBadResponse)
		}
		ids = append(ids, id)
		return nil
	})
	sort.Ints(ids)
	return ids, err
}
