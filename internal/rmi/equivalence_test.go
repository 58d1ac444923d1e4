package rmi_test

// Path equivalence: a blocking Call, a CallAsync promise consumed with
// Wait, and a Then chain are one call pipeline entered three ways, so the
// same calls over the same seeded faulty link must restore the same
// graphs and move the client's counters by the same amounts. The package
// is external so the scenario-III workload can come from internal/bench,
// which itself imports rmi.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"nrmi/internal/bench"
	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/netsim"
	"nrmi/internal/rmi"
	"nrmi/internal/wire"
)

// pathFaults is the seeded fault schedule every path runs under: dropped
// frames cost a per-attempt timeout, severed frames a reconnect, and both
// are retried.
func pathFaults() *netsim.Plan {
	return netsim.RandomPlan(11, netsim.Rates{Drop: 0.08, Sever: 0.05})
}

// newPathClient starts a server exporting the Figure 2 and scenario-III
// services on a fresh simulated link under plan (nil: no faults) and
// returns a client with a retry policy for it.
func newPathClient(t *testing.T, eng wire.Engine, plan *netsim.Plan) (*rmi.Client, *rmi.Server) {
	t.Helper()
	reg := wire.NewRegistry()
	if err := bench.RegisterTypes(reg); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("RTree", rmi.RTree{}); err != nil {
		t.Fatal(err)
	}
	opts := rmi.Options{Core: core.Options{Engine: eng, Registry: reg}}
	n := netsim.NewNetwork(netsim.Loopback())
	t.Cleanup(func() { n.Close() })
	srv, err := rmi.NewServer("server", opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, svc := range pathServices() {
		if err := srv.Export(name, svc); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	if plan != nil {
		n.SetFaults("server", plan)
	}
	opts.Retry = rmi.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, Seed: 1}
	opts.CallTimeout = 200 * time.Millisecond
	cl, err := rmi.NewClient(n.Dial, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srv
}

func pathServices() map[string]any {
	return map[string]any{
		"trees": &rmi.TreeService{},
		"nrmi":  &bench.NRMIService{},
		"copy":  &bench.CopyService{},
	}
}

// pathCall is one call of the workload: its target, its freshly built
// argument graph, and the state to compare once it returns (the roots
// together with every alias into them).
type pathCall struct {
	object, method string
	args           []any
	state          any
}

// pathWorkload alternates Figure 2 calls with scenario-III calls, each on
// its own deterministically generated graph, so every run of it starts
// from identical inputs.
func pathWorkload() []pathCall {
	var calls []pathCall
	for i := 0; i < 3; i++ {
		root, a1, a2, rl, rr := rmi.PaperRTree()
		calls = append(calls, pathCall{"trees", "Foo", []any{root}, []*rmi.RTree{root, a1, a2, rl, rr}})
		w, script := bench.NewWorld(bench.ScenarioIII, int64(i+1), 32)
		rw := bench.ToRWorld(w)
		calls = append(calls, pathCall{"nrmi", "Apply", []any{rw.Root, script}, rw})
	}
	return calls
}

// runLocally executes the workload in-process: the ground truth a remote
// copy-restore call must be indistinguishable from.
func runLocally(calls []pathCall) [][]any {
	svcs := pathServices()
	rets := make([][]any, len(calls))
	for i, c := range calls {
		in := make([]reflect.Value, len(c.args))
		for j, a := range c.args {
			in[j] = reflect.ValueOf(a)
		}
		for _, out := range reflect.ValueOf(svcs[c.object]).MethodByName(c.method).Call(in) {
			rets[i] = append(rets[i], out.Interface())
		}
	}
	return rets
}

// A callPath runs the whole workload through one client entry point and
// returns each call's results.
type callPath func(ctx context.Context, cl *rmi.Client, calls []pathCall) ([][]any, error)

func viaCall(ctx context.Context, cl *rmi.Client, calls []pathCall) ([][]any, error) {
	rets := make([][]any, len(calls))
	for i, c := range calls {
		r, err := cl.Stub("server", c.object).Call(ctx, c.method, c.args...)
		if err != nil {
			return nil, err
		}
		rets[i] = r
	}
	return rets, nil
}

func viaWait(ctx context.Context, cl *rmi.Client, calls []pathCall) ([][]any, error) {
	rets := make([][]any, len(calls))
	for i, c := range calls {
		p, err := cl.Stub("server", c.object).CallAsync(ctx, c.method, c.args...)
		if err != nil {
			return nil, err
		}
		if rets[i], err = p.Wait(ctx); err != nil {
			return nil, err
		}
	}
	return rets, nil
}

// viaThen issues the workload as one dependent chain: each call goes out
// from the continuation of the one before it.
func viaThen(ctx context.Context, cl *rmi.Client, calls []pathCall) ([][]any, error) {
	rets := make([][]any, len(calls))
	issue := func(i int) (*rmi.Promise, error) {
		return cl.Stub("server", calls[i].object).CallAsync(ctx, calls[i].method, calls[i].args...)
	}
	p, err := issue(0)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(calls); i++ {
		p = p.Then(func(prev []any) (*rmi.Promise, error) {
			rets[i-1] = prev
			return issue(i)
		})
	}
	last, err := p.Wait(ctx)
	if err != nil {
		return nil, err
	}
	rets[len(calls)-1] = last
	return rets, nil
}

// pathCounters is the part of ClientMetrics every path must move alike.
type pathCounters struct {
	Attempts, Retries, BytesSent, BytesReceived, CallsIssued, CallErrors, PayloadsReleased int64
}

func countersOf(m rmi.ClientMetrics) pathCounters {
	return pathCounters{m.Attempts, m.Retries, m.BytesSent, m.BytesReceived, m.CallsIssued, m.CallErrors, m.PayloadsReleased}
}

func TestPathEquivalence(t *testing.T) {
	paths := []struct {
		name string
		run  callPath
	}{
		{"Call", viaCall},
		{"CallAsync+Wait", viaWait},
		{"Then", viaThen},
	}
	want := pathWorkload()
	wantRets := runLocally(want)
	for _, eng := range []wire.Engine{wire.EngineV2, wire.EngineV3} {
		t.Run(eng.String(), func(t *testing.T) {
			var first pathCounters
			for i, path := range paths {
				cl, _ := newPathClient(t, eng, pathFaults())
				calls := pathWorkload()
				rets, err := path.run(context.Background(), cl, calls)
				if err != nil {
					t.Fatalf("%s: %v", path.name, err)
				}
				for j := range calls {
					eq, err := graph.Equal(graph.AccessExported, calls[j].state, want[j].state)
					if err != nil || !eq {
						t.Fatalf("%s call %d (%s): restored graph differs from local execution (err %v)",
							path.name, j, calls[j].method, err)
					}
					if len(rets[j])+len(wantRets[j]) > 0 && !reflect.DeepEqual(rets[j], wantRets[j]) {
						t.Fatalf("%s call %d: returned %v, want %v", path.name, j, rets[j], wantRets[j])
					}
				}
				got := countersOf(cl.Metrics())
				if i == 0 {
					if got.Retries == 0 {
						t.Fatalf("fault plan caused no retries; the retried path is not exercised: %+v", got)
					}
					first = got
					t.Logf("%s counters: %+v", path.name, got)
					continue
				}
				if got != first {
					t.Fatalf("%s counters %+v differ from %s's %+v", path.name, got, paths[0].name, first)
				}
			}
		})
	}
}

// TestOneWayEncodesConfiguredEngine: a V3 client's one-way request is the
// V3 encoding, byte for byte the size of the same call made blocking, and
// the server runs it.
func TestOneWayEncodesConfiguredEngine(t *testing.T) {
	ctx := context.Background()
	sent := func(cl *rmi.Client, f func(st *rmi.Stub, root *bench.Tree, script bench.Script) error) int64 {
		t.Helper()
		w, script := bench.NewWorld(bench.ScenarioIII, 5, 32)
		before := cl.Metrics()
		if err := f(cl.Stub("server", "copy"), w.Root, script); err != nil {
			t.Fatal(err)
		}
		after := cl.Metrics()
		if n := after.Attempts - before.Attempts; n != 1 {
			t.Fatalf("%d attempts, want 1", n)
		}
		return after.BytesSent - before.BytesSent
	}
	blocking := func(st *rmi.Stub, root *bench.Tree, script bench.Script) error {
		_, err := st.Call(ctx, "OneWay", root, script)
		return err
	}
	oneWay := func(st *rmi.Stub, root *bench.Tree, script bench.Script) error {
		return st.CallOneWay(ctx, "OneWay", root, script)
	}

	v2, _ := newPathClient(t, wire.EngineV2, nil)
	v3, srv := newPathClient(t, wire.EngineV3, nil)
	v2Bytes := sent(v2, blocking)
	v3Bytes := sent(v3, blocking)
	if v2Bytes == v3Bytes {
		t.Fatalf("V2 and V3 requests are both %d bytes; the size cannot tell the engines apart", v2Bytes)
	}
	if got := sent(v3, oneWay); got != v3Bytes {
		t.Fatalf("V3 one-way request is %d bytes, want the V3 encoding's %d (V2 is %d)", got, v3Bytes, v2Bytes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().CallsServed < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("server ran %d calls, want the blocking and the one-way call", srv.Metrics().CallsServed)
		}
		time.Sleep(time.Millisecond)
	}
	if m := srv.Metrics(); m.CallErrors != 0 || m.BytesIn != 2*v3Bytes {
		t.Fatalf("server metrics %+v: want no errors and %d request bytes", m, 2*v3Bytes)
	}
}
