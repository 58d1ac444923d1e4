package core

import (
	"bytes"
	"strings"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// These tests cover the edges of the restore protocol: container objects,
// interface fields, truncated and hostile responses, and combined policy
// options.

type carrier struct {
	Tag   string
	Table map[string]*Tree
	Items []*Tree
	Any   any
}

func carrierOptions(t *testing.T) Options {
	t.Helper()
	opts := testOptions(t)
	if err := opts.Registry.Register("carrier", carrier{}); err != nil {
		t.Fatal(err)
	}
	return opts
}

// runRemoteCarrier mirrors runRemote for carrier roots.
func runRemoteCarrier(t *testing.T, opts Options, mutate func(c *carrier), root *carrier) *Response {
	t.Helper()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCall(&req, opts)
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	mutate(sroot.(*carrier))
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := call.ApplyResponse(&respBuf)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRestoreThroughMapAndSliceContainers(t *testing.T) {
	opts := carrierOptions(t)
	shared := &Tree{Data: 1}
	root := &carrier{
		Tag:   "before",
		Table: map[string]*Tree{"a": shared},
		Items: []*Tree{shared, {Data: 2}},
		Any:   shared,
	}
	aliasItems := root.Items

	runRemoteCarrier(t, opts, func(c *carrier) {
		c.Tag = "after"
		c.Table["a"].Data = 100       // mutate the shared node
		c.Table["b"] = &Tree{Data: 3} // add an entry
		c.Items[1].Data = 200
	}, root)

	if root.Tag != "after" {
		t.Fatalf("Tag = %q", root.Tag)
	}
	if shared.Data != 100 {
		t.Fatalf("shared.Data = %d", shared.Data)
	}
	if root.Table["b"] == nil || root.Table["b"].Data != 3 {
		t.Fatalf("new map entry missing: %v", root.Table)
	}
	if aliasItems[1].Data != 200 {
		t.Fatal("slice alias must observe element mutation")
	}
	// The interface field still points at the SAME original object.
	if root.Any.(*Tree) != shared {
		t.Fatal("interface field identity lost")
	}
	// Map identity preserved: the header the alias shares was refilled.
	if len(root.Table) != 2 {
		t.Fatalf("map size = %d", len(root.Table))
	}

	t.Run("map-and-slice-content", func(t *testing.T) {
		for _, kernels := range []bool{true, false} {
			opts := shelfOptions(t)
			opts.DisableKernels = !kernels
			restoreShelf(t, opts)
		}
	})
}

// shelf and shelfEntry put struct values, slices and maps inside the
// restorable maps and slices, so the content records of those containers
// carry whole structs. The kernel decoder fills map entries through one
// reused key cell and one reused value cell, and slice elements in place;
// consecutive entries differ in which fields are zero or nil, so a cell
// that leaks a field from an earlier entry restores a wrong graph.
type shelf struct {
	ByName map[string]shelfEntry
	Rows   []shelfEntry
	Lists  map[string][]int
	IDs    []int
	Ptrs   map[int]*Tree
}

type shelfEntry struct {
	Name string
	Tree *Tree
	Tags []string
	N    int
}

func shelfOptions(t *testing.T) Options {
	t.Helper()
	opts := testOptions(t)
	for name, sample := range map[string]any{"shelf": shelf{}, "shelfEntry": shelfEntry{}} {
		if err := opts.Registry.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	return opts
}

func newShelf() *shelf {
	shared := &Tree{Data: 1}
	return &shelf{
		ByName: map[string]shelfEntry{
			"a": {Name: "a", Tree: shared, Tags: []string{"x"}, N: 1},
			"b": {Name: "b"},
		},
		Rows:  []shelfEntry{{Name: "r0", Tree: shared, Tags: []string{"y"}, N: 2}, {N: 3}},
		Lists: map[string][]int{"p": {1, 2}, "q": nil},
		IDs:   []int{4, 5, 6},
		Ptrs:  map[int]*Tree{1: shared, 2: shared},
	}
}

// mutateShelf turns full entries empty and empty ones full, in sorted key
// order and in slice order, and adds entries of both shapes.
func mutateShelf(s *shelf) {
	shared := s.Ptrs[1]
	fresh := &Tree{Data: 9}
	s.ByName["a"] = shelfEntry{N: 7}
	s.ByName["b"] = shelfEntry{Name: "b2", Tree: fresh, Tags: []string{"t1", "t2"}, N: 8}
	s.ByName["c"] = shelfEntry{}
	s.ByName["d"] = shelfEntry{Name: "d", Tree: shared, Tags: []string{}}
	s.Rows[0] = shelfEntry{}
	s.Rows[1] = shelfEntry{Name: "r1", Tree: fresh, Tags: []string{"z"}, N: 4}
	s.Lists["p"] = nil
	s.Lists["q"] = []int{7}
	s.Lists["r"] = []int{0}
	s.IDs[0], s.IDs[2] = 0, 60
	s.Ptrs[2] = fresh
	s.Ptrs[3] = nil
	shared.Data = 100
}

// restoreShelf runs mutateShelf remotely and locally and compares.
func restoreShelf(t *testing.T, opts Options) {
	t.Helper()
	remote, local := newShelf(), newShelf()
	byName, rows, lists, ids := remote.ByName, remote.Rows, remote.Lists, remote.IDs
	shared := remote.Ptrs[1]
	mutateShelf(local)

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(remote); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCall(&req, opts)
	sroot, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	mutateShelf(sroot.(*shelf))
	var resp bytes.Buffer
	if _, err := srv.EncodeResponse(&resp, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponse(&resp); err != nil {
		t.Fatal(err)
	}
	if eq, err := graph.Equal(graph.AccessExported, remote, local); err != nil || !eq {
		t.Fatalf("kernels=%v: restored shelf differs from local execution (%v %v): %+v",
			opts.kernelsEnabled(), eq, err, remote)
	}
	// The containers were restored in place: every alias sees the result.
	if len(byName) != 4 || byName["a"].Tree != nil || byName["b"].Tree.Data != 9 {
		t.Fatalf("map alias not refilled: %+v", byName)
	}
	if rows[0].Tags != nil || rows[1].Name != "r1" || lists["p"] != nil || ids[2] != 60 {
		t.Fatalf("container aliases not restored: %+v %+v %v", rows, lists, ids)
	}
	if remote.Ptrs[1] != shared || byName["d"].Tree != shared || shared.Data != 100 ||
		remote.Ptrs[2] != byName["b"].Tree || rows[1].Tree != byName["b"].Tree {
		t.Fatal("node identity lost through map values and slice elements")
	}
}

func TestRestoreInterfaceFieldRetarget(t *testing.T) {
	opts := carrierOptions(t)
	root := &carrier{Any: &Tree{Data: 1}}
	runRemoteCarrier(t, opts, func(c *carrier) {
		c.Any = "now a string"
	}, root)
	if root.Any != "now a string" {
		t.Fatalf("Any = %v", root.Any)
	}
	// And back to nil.
	runRemoteCarrier(t, opts, func(c *carrier) {
		c.Any = nil
	}, root)
	if root.Any != nil {
		t.Fatalf("Any = %v, want nil", root.Any)
	}
}

func TestDCEWithDeltaCombined(t *testing.T) {
	opts := testOptions(t)
	opts.Policy = PolicyDCE
	opts.Delta = true
	root, a1, _, _, _ := paperTree()
	runRemote(t, opts, func(tree *Tree) []any {
		paperFoo(tree)
		return nil
	}, root)
	// DCE semantics still hold under delta: unreachable updates dropped.
	if a1.Data != 1 {
		t.Fatalf("a1.Data = %d, want 1 under DCE", a1.Data)
	}
	if root.Left != nil || root.Right == nil || root.Right.Data != 2 {
		t.Fatal("reachable updates must still restore")
	}
}

func TestApplyResponseTruncated(t *testing.T) {
	opts := testOptions(t)
	root, _, _, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCall(&req, opts)
	if _, err := srv.DecodeRestorable(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	full := respBuf.Bytes()
	for _, cut := range []int{1, len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := call.ApplyResponse(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	// The full response still applies cleanly afterwards (truncated
	// attempts must not corrupt the originals irreversibly for this
	// read-only-failure case... decoding errors abort before restore).
	if _, err := call.ApplyResponse(bytes.NewReader(full)); err != nil {
		t.Fatal(err)
	}
}

func TestApplyResponseHostileCounts(t *testing.T) {
	opts := testOptions(t)
	root, _, _, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a response claiming more content records than objects.
	var respBuf bytes.Buffer
	enc := wire.NewEncoder(&respBuf, opts.wireOptions())
	if err := enc.EncodeUint(99999); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	_, err := call.ApplyResponse(bytes.NewReader(respBuf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "content records") {
		t.Fatalf("hostile count must fail cleanly: %v", err)
	}
}

func TestEncodeAfterFinishRejected(t *testing.T) {
	opts := testOptions(t)
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeCopy(1); err == nil {
		t.Fatal("EncodeCopy after Finish must fail")
	}
	if err := call.EncodeRestorable(&Tree{}); err == nil {
		t.Fatal("EncodeRestorable after Finish must fail")
	}
}

func TestRestorableNamedMapRoot(t *testing.T) {
	// A named map type can itself be the restorable root (the paper's
	// RestorableHashMap pattern).
	opts := testOptions(t)
	if err := opts.Registry.Register("treeIndex", map[string]*Tree{}); err != nil {
		t.Fatal(err)
	}
	m := map[string]*Tree{"root": {Data: 1}}
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(m); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCall(&req, opts)
	sm, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	srvMap := sm.(map[string]*Tree)
	srvMap["root"].Data = 7
	srvMap["extra"] = &Tree{Data: 9}
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponse(&respBuf); err != nil {
		t.Fatal(err)
	}
	if m["root"].Data != 7 || m["extra"] == nil || m["extra"].Data != 9 {
		t.Fatalf("map root restore failed: %v", m)
	}
}

func TestBytesAccounting(t *testing.T) {
	opts := testOptions(t)
	root, _, _, _, _ := paperTree()
	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(root); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	if call.BytesSent() != int64(req.Len()) {
		t.Fatalf("BytesSent = %d, buffer = %d", call.BytesSent(), req.Len())
	}
	if len(call.Objects()) != 5 {
		t.Fatalf("linear map size = %d", len(call.Objects()))
	}
	srv := AcceptCall(&req, opts)
	if _, err := srv.DecodeRestorable(); err != nil {
		t.Fatal(err)
	}
	if srv.BytesReceived() == 0 {
		t.Fatal("server byte accounting missing")
	}
	if srv.Engine() != wire.EngineV2 {
		t.Fatalf("engine = %v", srv.Engine())
	}
	if srv.Access() != graph.AccessExported {
		t.Fatalf("access = %v", srv.Access())
	}
}

func TestDeltaFallsBackOnUndiffableObjects(t *testing.T) {
	// Pointer-keyed maps cannot be shallow-diffed; delta must ship them
	// conservatively instead of failing the call.
	opts := testOptions(t)
	opts.Delta = true
	if err := opts.Registry.Register("ptrIndex", map[*Tree]int{}); err != nil {
		t.Fatal(err)
	}
	k := &Tree{Data: 1}
	m := map[*Tree]int{k: 10}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeRestorable(m); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCall(&req, opts)
	sm, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	for sk := range sm.(map[*Tree]int) {
		sm.(map[*Tree]int)[sk] = 99
	}
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatalf("delta over pointer-keyed map must not fail: %v", err)
	}
	if _, err := call.ApplyResponse(&respBuf); err != nil {
		t.Fatal(err)
	}
	if m[k] != 99 {
		t.Fatalf("restore lost: %v", m)
	}
}

func TestSameObjectAsCopyAndRestorableArg(t *testing.T) {
	// One object passed under BOTH semantics in one call: the stream
	// carries it once (shared table), the server sees one object through
	// both parameters, and restore wins.
	opts := testOptions(t)
	x := &Tree{Data: 1}

	var req bytes.Buffer
	call := NewCall(&req, opts)
	if err := call.EncodeCopy(x); err != nil {
		t.Fatal(err)
	}
	if err := call.EncodeRestorable(x); err != nil {
		t.Fatal(err)
	}
	if err := call.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := AcceptCall(&req, opts)
	sc, err := srv.DecodeCopy()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := srv.DecodeRestorable()
	if err != nil {
		t.Fatal(err)
	}
	if sc.(*Tree) != sr.(*Tree) {
		t.Fatal("one stream, one object: both params must alias")
	}
	if err := srv.Prepare(); err != nil {
		t.Fatal(err)
	}
	sr.(*Tree).Data = 42
	var respBuf bytes.Buffer
	if _, err := srv.EncodeResponse(&respBuf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := call.ApplyResponse(&respBuf); err != nil {
		t.Fatal(err)
	}
	if x.Data != 42 {
		t.Fatalf("restorable semantics must win: %d", x.Data)
	}
}
