package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"nrmi/internal/graph"
	"nrmi/internal/wire"
)

// This file checks the restore-set rule (restoreset.go) differentially:
// the set captured during the codec pass must equal the set a reachability
// walk of the restorable roots derives, on both endpoints, and a response
// seeded from the captured set must be byte-identical to one seeded from
// the walked set.

// RNode is the differential test's node type: it carries every
// identity-bearing kind the codec and the walker must agree on — pointers,
// slices and maps, directly and behind an interface.
type RNode struct {
	Val  int
	Next *RNode
	Kids []*RNode
	Tags map[string]*RNode
	Any  any
}

// genRGraph builds size nodes, all reachable from nodes[0], connected by a
// random mix of Next, Kids, Tags and Any edges, then adds aliasing: extra
// Next edges (cycles included), extra map entries, and interfaces holding
// another node's slice or map. Slices are never empty, so no two distinct
// slices share a zero-size backing array.
func genRGraph(seed int64, size int) []*RNode {
	r := newRng(seed)
	nodes := make([]*RNode, size)
	for i := range nodes {
		nodes[i] = &RNode{Val: r.next(1000)}
	}
	kids := make([][]*RNode, size)
	for i := 1; i < size; i++ {
		p := r.next(i)
		switch r.next(4) {
		case 0:
			if nodes[p].Next == nil {
				nodes[p].Next = nodes[i]
				continue
			}
		case 1:
			if nodes[p].Tags == nil {
				nodes[p].Tags = make(map[string]*RNode)
			}
			nodes[p].Tags[fmt.Sprintf("k%d", i)] = nodes[i]
			continue
		case 2:
			if nodes[p].Any == nil {
				nodes[p].Any = nodes[i]
				continue
			}
		}
		kids[p] = append(kids[p], nodes[i])
	}
	for i, k := range kids {
		if len(k) > 0 {
			nodes[i].Kids = k
		}
	}
	for i := 0; i < size/2; i++ {
		a, b := nodes[r.next(size)], nodes[r.next(size)]
		switch r.next(4) {
		case 0:
			if a.Next == nil {
				a.Next = b
			}
		case 1:
			if a.Tags != nil {
				a.Tags[fmt.Sprintf("alias%d", i)] = b
			}
		case 2:
			if a.Any == nil && b.Kids != nil {
				a.Any = b.Kids
			}
		case 3:
			if a.Any == nil && b.Tags != nil {
				a.Any = b.Tags
			} else if a.Any == nil {
				a.Any = r.next(100)
			}
		}
	}
	return nodes
}

// rnodes collects, in a deterministic DFS order, every node reachable from
// roots (through Next, Kids, Tags in key order, and Any). Isomorphic graphs
// yield positionally corresponding lists.
func rnodes(roots []*RNode) []*RNode {
	var out []*RNode
	seen := make(map[*RNode]bool)
	var visit func(n *RNode)
	visitAny := func(v any) {
		switch x := v.(type) {
		case *RNode:
			visit(x)
		case []*RNode:
			for _, k := range x {
				visit(k)
			}
		case map[string]*RNode:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				visit(x[k])
			}
		}
	}
	visit = func(n *RNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		out = append(out, n)
		visit(n.Next)
		visitAny(n.Kids)
		visitAny(n.Tags)
		visitAny(n.Any)
	}
	for _, r := range roots {
		visit(r)
	}
	return out
}

// mutateRGraph is the remote method body: a deterministic mix of field
// updates, rewiring, new objects, map edits and cuts over everything
// reachable from the restorable roots. Slice lengths never change, as
// copy-restore requires.
func mutateRGraph(roots []*RNode) {
	nodes := rnodes(roots)
	for i, n := range nodes {
		n.Val += 7*i + 1
		switch i % 6 {
		case 1:
			n.Next = nodes[(i*5+1)%len(nodes)]
		case 2:
			if len(n.Kids) > 0 {
				n.Kids[0] = &RNode{Val: -i, Next: nodes[0]}
			}
		case 3:
			if len(n.Tags) > 0 {
				keys := make([]string, 0, len(n.Tags))
				for k := range n.Tags {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				delete(n.Tags, keys[0])
				n.Tags["new"] = &RNode{Val: -2 * i}
			}
		case 4:
			n.Any = nil
		}
	}
}

// rsArg is one argument of a test call.
type rsArg struct {
	v       any
	restore bool
}

// rsCase is one argument order. g and h are two generated graphs; h links
// into g, so arguments drawn from both share objects.
type rsCase struct {
	name string
	walk bool // the rule the order must select
	args func(g, h []*RNode) []rsArg
}

var rsCases = []rsCase{
	{"restorable-only", false, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[0], true}}
	}},
	{"two-restorables-sharing", false, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[0], true}, {h[0], true}}
	}},
	{"restorable-then-copy", false, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[0], true}, {h[0], false}}
	}},
	{"scalar-copy-then-restorable", false, func(g, h []*RNode) []rsArg {
		return []rsArg{{42, false}, {g[0], true}}
	}},
	{"copy-then-restorable-shared", true, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[len(g)/2], false}, {g[0], true}}
	}},
	{"same-object-restorable-first", false, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[0], true}, {g[0], false}}
	}},
	{"same-object-copy-first", true, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[0], false}, {g[0], true}}
	}},
	{"restorable-copy-restorable", true, func(g, h []*RNode) []rsArg {
		return []rsArg{{g[0], true}, {h[0], false}, {g[len(g)-1], true}}
	}},
}

// rsWorld generates the case's argument list for one seed. Two calls with
// the same seed build isomorphic worlds.
func rsWorld(c rsCase, seed int64, size int) []rsArg {
	g := genRGraph(seed, size)
	h := genRGraph(seed+1, size/2+1)
	h[len(h)-1].Next = g[len(g)/3]
	h[0].Any = g[1%len(g)]
	return c.args(g, h)
}

func rsOptionsFor(t *testing.T, eng wire.Engine, kernels bool) Options {
	t.Helper()
	reg := wire.NewRegistry()
	if err := reg.Register("RNode", RNode{}); err != nil {
		t.Fatal(err)
	}
	return Options{Registry: reg, Engine: eng, DisableKernels: !kernels}
}

// restorableRoots returns the restorable argument values as nodes.
func restorableRoots(args []rsArg) []*RNode {
	var out []*RNode
	for _, a := range args {
		if a.restore {
			out = append(out, a.v.(*RNode))
		}
	}
	return out
}

// walkedSet derives the restore set the pre-prefix way: walk the roots and
// map every reachable object to its stream ID through idOf, ascending.
func walkedSet(t *testing.T, access graph.AccessMode, roots []*RNode, idOf func(reflect.Value) (int, bool)) []int {
	t.Helper()
	w := graph.NewWalker(access)
	for _, r := range roots {
		if err := w.Root(r); err != nil {
			t.Fatalf("walk: %v", err)
		}
	}
	var ids []int
	for _, obj := range w.LinearMap().Objects() {
		id, ok := idOf(obj.Ref)
		if !ok {
			t.Fatalf("walked object %s missing from the codec table", obj.Ref.Type())
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// setIDs materializes a restore set as its ascending stream-ID list.
func setIDs(s *restoreSet) []int {
	ids := make([]int, s.Len())
	for i := range ids {
		ids[i] = s.id(i)
	}
	return ids
}

// rsReturn is the remote method's return value: a new object aliasing
// into the restored graph, so return values and restored arguments must
// decode against one table.
func rsReturn(roots []*RNode) *RNode {
	return &RNode{Val: 99, Next: roots[0].Next, Any: roots[len(roots)-1]}
}

// serveRS decodes req, optionally forcing the walk rule, runs the
// mutation on the restorable arguments, and returns the server call and
// its response bytes.
func serveRS(t *testing.T, opts Options, req []byte, args []rsArg, forceWalk bool) (*ServerCall, []byte) {
	t.Helper()
	srv := AcceptCallBytes(req, opts)
	var roots []*RNode
	for i, a := range args {
		var v any
		var err error
		if a.restore {
			v, err = srv.DecodeRestorable()
			roots = append(roots, v.(*RNode))
		} else {
			v, err = srv.DecodeCopy()
		}
		if err != nil {
			t.Fatalf("server decode arg %d: %v", i, err)
		}
	}
	if forceWalk {
		srv.set.walk = true
	}
	if err := srv.Prepare(); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	mutateRGraph(roots)
	var resp bytes.Buffer
	if _, err := srv.EncodeResponse(&resp, []any{rsReturn(roots)}); err != nil {
		t.Fatalf("encode response: %v", err)
	}
	return srv, resp.Bytes()
}

// checkRestoreSet runs one differential case end to end.
func checkRestoreSet(t *testing.T, opts Options, c rsCase, seed int64, size int) {
	t.Helper()
	args := rsWorld(c, seed, size)
	want := rsWorld(c, seed, size) // isomorphic copy for local execution
	wantRoots := restorableRoots(want)
	mutateRGraph(wantRoots)
	wantRet := rsReturn(wantRoots)

	var req bytes.Buffer
	call := NewCall(&req, opts)
	defer call.Release()
	for i, a := range args {
		var err error
		if a.restore {
			err = call.EncodeRestorable(a.v)
		} else {
			err = call.EncodeCopy(a.v)
		}
		if err != nil {
			t.Fatalf("encode arg %d: %v", i, err)
		}
	}
	if err := call.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	if call.set.walk != c.walk {
		t.Fatalf("client chose walk=%v, want %v", call.set.walk, c.walk)
	}
	roots := restorableRoots(args)
	clientWalked := walkedSet(t, opts.Access, roots, call.enc.IDOf)
	if got := setIDs(&call.set); !reflect.DeepEqual(got, clientWalked) {
		t.Fatalf("client set %v, walked set %v", got, clientWalked)
	}

	srv, resp := serveRS(t, opts, req.Bytes(), args, false)
	defer srv.Release()
	if srv.set.walk != c.walk {
		t.Fatalf("server chose walk=%v, want %v", srv.set.walk, c.walk)
	}
	// The server's set is fixed before the method runs, so compare it with
	// a walk of a fresh, unmutated decode of the same request.
	fresh := AcceptCallBytes(req.Bytes(), opts)
	defer fresh.Release()
	var freshRoots []*RNode
	for _, a := range args {
		var v any
		var err error
		if a.restore {
			v, err = fresh.DecodeRestorable()
			freshRoots = append(freshRoots, v.(*RNode))
		} else {
			_, err = fresh.DecodeCopy()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	freshIDs := make(map[graph.Ident]int)
	for id, obj := range fresh.dec.Objects() {
		ident, _ := graph.IdentOf(obj)
		freshIDs[ident] = id
	}
	serverWalked := walkedSet(t, opts.Access, freshRoots, func(v reflect.Value) (int, bool) {
		ident, ok := graph.IdentOf(v)
		id, found := freshIDs[ident]
		return id, ok && found
	})
	if got := setIDs(&srv.set); !reflect.DeepEqual(got, serverWalked) {
		t.Fatalf("server set %v, walked set %v", got, serverWalked)
	}
	if !reflect.DeepEqual(serverWalked, clientWalked) {
		t.Fatalf("endpoints disagree: server %v, client %v", serverWalked, clientWalked)
	}

	walked, walkedResp := serveRS(t, opts, req.Bytes(), args, true)
	defer walked.Release()
	if !bytes.Equal(resp, walkedResp) {
		t.Fatalf("response seeded from the captured set differs from the walk-seeded one (%d vs %d bytes)", len(resp), len(walkedResp))
	}

	out, err := call.ApplyResponseBytes(resp)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	got := []any{restorableRoots(args), out.Returns[0]}
	eq, err := graph.Equal(graph.AccessExported, got, []any{wantRoots, wantRet})
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("restored graph diverged from local execution")
	}
}

// TestRestoreSetMatchesWalk: on random aliased graphs, for every engine,
// kernels on and off, and every argument order, the captured restore set
// equals the walked one on both endpoints, the response bytes match the
// walk-seeded response, and the restore equals local execution.
func TestRestoreSetMatchesWalk(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV1, wire.EngineV2, wire.EngineV3} {
		for _, kernels := range []bool{true, false} {
			opts := rsOptionsFor(t, eng, kernels)
			for _, c := range rsCases {
				name := fmt.Sprintf("%s/kernels=%v/%s", eng, kernels, c.name)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 12; seed++ {
						size := 2 + int(seed*7%40)
						checkRestoreSet(t, opts, c, seed, size)
					}
				})
			}
		}
	}
}

// TestRestoreSetDelta: the delta filter runs over the captured set too.
func TestRestoreSetDelta(t *testing.T) {
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		opts := rsOptionsFor(t, eng, true)
		opts.Delta = true
		for _, c := range rsCases {
			t.Run(eng.String()+"/"+c.name, func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					checkRestoreSet(t, opts, c, seed, 3+int(seed*11%30))
				}
			})
		}
	}
}

// TestRestoreSetNoWalkOnPrefix pins the cost model: a call whose
// restorable arguments come first performs no reachability walk and builds
// no identity index on either endpoint; the fallback order walks once per
// endpoint, and PolicyDCE adds exactly its post-call walk.
func TestRestoreSetNoWalkOnPrefix(t *testing.T) {
	run := func(t *testing.T, opts Options, c rsCase) (walks int64, srv *ServerCall) {
		t.Helper()
		args := rsWorld(c, 3, 24)
		before := restoreWalks.Load()
		var req bytes.Buffer
		call := NewCall(&req, opts)
		defer call.Release()
		for _, a := range args {
			var err error
			if a.restore {
				err = call.EncodeRestorable(a.v)
			} else {
				err = call.EncodeCopy(a.v)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := call.Finish(); err != nil {
			t.Fatal(err)
		}
		srv, resp := serveRS(t, opts, req.Bytes(), args, false)
		if _, err := call.ApplyResponseBytes(resp); err != nil {
			t.Fatal(err)
		}
		return restoreWalks.Load() - before, srv
	}
	for _, eng := range []wire.Engine{wire.EngineV1, wire.EngineV2, wire.EngineV3} {
		for _, kernels := range []bool{true, false} {
			opts := rsOptionsFor(t, eng, kernels)
			t.Run(fmt.Sprintf("%s/kernels=%v", eng, kernels), func(t *testing.T) {
				for _, c := range rsCases {
					walks, srv := run(t, opts, c)
					wantWalks := int64(0)
					if c.walk {
						wantWalks = 2
					}
					if walks != wantWalks {
						t.Errorf("%s: %d walks, want %d", c.name, walks, wantWalks)
					}
					if !c.walk && srv.identToID != nil {
						t.Errorf("%s: server built an identity index on the prefix path", c.name)
					}
					srv.Release()
				}
				dce := opts
				dce.Policy = PolicyDCE
				walks, srv := run(t, dce, rsCases[0])
				srv.Release()
				if walks != 1 {
					t.Errorf("PolicyDCE restorable-only: %d walks, want 1 (the post-call walk)", walks)
				}
			})
		}
	}
}

// emptySlices holds two distinct empty slices: one identity each on the
// client, and — Go handing every zero-byte allocation one address — a
// shared data pointer on the decode side unless the decoder keeps them
// apart.
type emptySlices struct {
	A, B []int
}

// TestRestoreSetDistinctEmptySlices: distinct empty slices stay distinct
// objects through decode, so the server's restore set seeds one response
// slot per request object and the restore keeps each slice's identity.
func TestRestoreSetDistinctEmptySlices(t *testing.T) {
	reg := wire.NewRegistry()
	if err := reg.Register("emptySlices", emptySlices{}); err != nil {
		t.Fatal(err)
	}
	for _, eng := range []wire.Engine{wire.EngineV1, wire.EngineV2, wire.EngineV3} {
		opts := Options{Registry: reg, Engine: eng}
		a, b := make([]int, 0, 4), make([]int, 0, 4)
		p := &emptySlices{A: a, B: b}
		var req bytes.Buffer
		call := NewCall(&req, opts)
		if err := call.EncodeRestorable(p); err != nil {
			t.Fatal(err)
		}
		if err := call.Finish(); err != nil {
			t.Fatal(err)
		}
		srv := AcceptCall(&req, opts)
		v, err := srv.DecodeRestorable()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Prepare(); err != nil {
			t.Fatal(err)
		}
		sp := v.(*emptySlices)
		if reflect.ValueOf(sp.A).Pointer() == reflect.ValueOf(sp.B).Pointer() {
			t.Fatalf("%v: decoded empty slices share one identity", eng)
		}
		sp.A, sp.B = sp.B, nil
		var resp bytes.Buffer
		if _, err := srv.EncodeResponse(&resp, nil); err != nil {
			t.Fatalf("%v: encode response: %v", eng, err)
		}
		if _, err := call.ApplyResponse(&resp); err != nil {
			t.Fatalf("%v: apply: %v", eng, err)
		}
		if p.B != nil || cap(p.A) != 4 || reflect.ValueOf(p.A).Pointer() != reflect.ValueOf(b).Pointer() {
			t.Fatalf("%v: restore lost slice identity: A=%p B=%v", eng, p.A, p.B)
		}
	}
}
