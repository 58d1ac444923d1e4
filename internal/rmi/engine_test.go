package rmi

// Cross-engine interop: a V2 client must get V2 replies from a server
// whose default engine is V3 (the server answers in the request's
// engine), and a request whose stream header names an engine the server
// does not implement is refused before any argument is decoded.

import (
	"context"
	"errors"
	"testing"
	"time"

	"nrmi/internal/bufpool"
	"nrmi/internal/core"
	"nrmi/internal/netsim"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// newEngineEnv is newEnv with independent server- and client-side core
// options, for engine-mismatch worlds.
func newEngineEnv(t *testing.T, serverCore, clientCore core.Options) *env {
	t.Helper()
	reg := wire.NewRegistry()
	for name, sample := range map[string]any{
		"RTree": RTree{}, "CTree": CTree{},
	} {
		if err := reg.Register(name, sample); err != nil {
			t.Fatal(err)
		}
	}
	serverCore.Registry = reg
	clientCore.Registry = reg
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })

	srv, err := NewServer("server", Options{Core: serverCore})
	if err != nil {
		t.Fatal(err)
	}
	svc := &TreeService{}
	if err := srv.Export("trees", svc); err != nil {
		t.Fatal(err)
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cl, err := NewClient(n.Dial, Options{Core: clientCore})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return &env{net: n, server: srv, client: cl, service: svc}
}

func assertFigure2RTree(t *testing.T, root, a1, a2, rl, rr *RTree) {
	t.Helper()
	if a1.Data != 0 || a2.Data != 9 || a2.Right != nil || rr.Data != 8 || rl.Data != 3 {
		t.Fatalf("restore wrong: a1=%d a2=%d rr=%d rl=%d", a1.Data, a2.Data, rr.Data, rl.Data)
	}
	if root.Left != nil || root.Right == nil || root.Right.Data != 2 || root.Right.Left != rr {
		t.Fatal("structure wrong after restore")
	}
}

// TestV3EndToEnd: both ends speak V3; the paper's mutation restores
// correctly over the real stack.
func TestV3EndToEnd(t *testing.T) {
	v3 := core.Options{Engine: wire.EngineV3}
	e := newEngineEnv(t, v3, v3)
	root, a1, a2, rl, rr := paperRTree()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	assertFigure2RTree(t, root, a1, a2, rl, rr)
}

// TestV2ClientAgainstV3Server: the server's own default engine is V3, but
// it must answer a V2 request in V2 — the reply engine follows the request.
func TestV2ClientAgainstV3Server(t *testing.T) {
	e := newEngineEnv(t,
		core.Options{Engine: wire.EngineV3},
		core.Options{Engine: wire.EngineV2})
	root, a1, a2, rl, rr := paperRTree()
	stub := e.client.Stub("server", "trees")
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
	assertFigure2RTree(t, root, a1, a2, rl, rr)
}

// TestUnknownEngineRequestRejected: a request frame whose stream header
// names an engine the server does not implement comes back as a remote
// error, and the method never runs. The request is a real encoded call
// with only its engine byte replaced.
func TestUnknownEngineRequestRejected(t *testing.T) {
	e := newEngineEnv(t, core.Options{}, core.Options{})
	stub := e.client.Stub("server", "trees")
	root, _, _, _, _ := paperRTree()
	inv := invocation{st: stub, method: "Foo"}
	defer inv.finish(nil, nil)
	if err := inv.encode([]any{root}); err != nil {
		t.Fatal(err)
	}
	frame := inv.req.Bytes()
	if frame[1] != byte(wire.EngineV2) {
		t.Fatalf("request header % x: engine byte not at offset 1", frame[:3])
	}
	tc, err := e.client.conn("server")
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []byte{0, 4, 255} {
		frame[1] = eng
		payload, err := tc.Call(context.Background(), transport.MsgCall, frame)
		transport.ReleasePayload(payload)
		var remote *transport.RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("engine %d: got %v (%T), want *transport.RemoteError", eng, err, err)
		}
	}
	if n := e.service.Calls(); n != 0 {
		t.Fatalf("service ran %d times for rejected requests", n)
	}
	// The connection stays usable: the rejection is per request.
	if _, err := stub.Call(context.Background(), "Foo", root); err != nil {
		t.Fatal(err)
	}
}

// TestV3PayloadOwnershipLedger re-runs the payload-ownership audit over the
// V3 path, where the reply payload's lifetime extends through the restore
// commit (the flat records are validated as slices of the payload itself)
// and is released only after ApplyResponseBytes returns.
func TestV3PayloadOwnershipLedger(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	v3 := core.Options{Engine: wire.EngineV3}
	e := newEngineEnv(t, v3, v3)
	stub := e.client.Stub("server", "trees")
	ctx := context.Background()

	const calls = 25
	for i := 0; i < calls; i++ {
		root, _, _, _, _ := paperRTree()
		if _, err := stub.Call(ctx, "Foo", root); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stub.Call(ctx, "Fail"); err == nil {
		t.Fatal("Fail must surface its error")
	}

	cm := e.client.Metrics()
	if want := int64(calls); cm.PayloadsReleased != want {
		t.Errorf("PayloadsReleased = %d, want %d", cm.PayloadsReleased, want)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		s := bufpool.DebugSnapshot()
		if s.DoublePuts != 0 {
			t.Fatalf("double-Put detected: %+v", s)
		}
		if s.Outstanding == 0 {
			if s.Gets == 0 {
				t.Fatal("ledger saw no pool traffic; the test is vacuous")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("payload leak: %d buffers never returned to the pool (%+v)", s.Outstanding, s)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
