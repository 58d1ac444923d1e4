package main

import (
	"context"
	"fmt"
	"net"

	"nrmi"
	"nrmi/internal/bench"
	"nrmi/internal/graph"
)

// env is one server and one client over TCP loopback, both with default
// options apart from their type registry.
type env struct {
	addr  string
	reg   *nrmi.Registry
	srv   *nrmi.Server
	cl    *nrmi.Client
	nrmi  *nrmi.Stub
	copy  *nrmi.Stub
	macro *nrmi.Stub
}

// newEnv registers the benchmark types, starts the server on a loopback
// port and builds the client. The client dials on its first call.
func newEnv() (*env, error) {
	reg := nrmi.NewRegistry()
	if err := bench.RegisterTypes(reg); err != nil {
		return nil, fmt.Errorf("registering types: %w", err)
	}
	opts := nrmi.Options{Registry: reg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	addr := ln.Addr().String()
	srv, err := nrmi.NewServer(addr, opts)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("creating server: %w", err)
	}
	for name, svc := range map[string]any{
		"nrmi":  &bench.NRMIService{},
		"copy":  &bench.CopyService{},
		"macro": &bench.MacroService{},
	} {
		if err := srv.Export(name, svc); err != nil {
			_ = ln.Close()
			return nil, fmt.Errorf("exporting %s: %w", name, err)
		}
	}
	srv.Serve(ln)
	cl, err := nrmi.NewClient(nrmi.TCPDialer(), opts)
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("creating client: %w", err)
	}
	return &env{
		addr:  addr,
		reg:   reg,
		srv:   srv,
		cl:    cl,
		nrmi:  cl.Stub(addr, "nrmi"),
		copy:  cl.Stub(addr, "copy"),
		macro: cl.Stub(addr, "macro"),
	}, nil
}

func (e *env) close() {
	_ = e.cl.Close()
	_ = e.srv.Close()
}

// envSegments is how many segments run on one env before it is replaced.
// Each env has its own connection and server goroutines, and how the host
// schedules those stays the same for the env's life: a run that renews
// its env samples several such placements instead of one, which makes
// runs agree far better on the pipelined workload.
const envSegments = 4

// renew replaces e, in place, with a fresh env whose client has already
// dialed, and closes the old one.
func (e *env) renew(ctx context.Context) error {
	ne, err := newEnv()
	if err != nil {
		return err
	}
	if err := ne.cl.Ping(ctx, ne.addr); err != nil {
		ne.close()
		return fmt.Errorf("dialing the new env: %w", err)
	}
	e.close()
	*e = *ne
	return nil
}

// callSeed derives the generator seed of call i from the run's seed.
func callSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// treeCall is one copy-restore nrmi.Apply call on a scenario-III world.
type treeCall struct {
	seed   int64
	size   int
	rw     *bench.RWorld
	script bench.Script
}

func newTreeCall(seed int64, size int) *treeCall {
	w, script := bench.NewWorld(bench.ScenarioIII, seed, size)
	return &treeCall{seed: seed, size: size, rw: bench.ToRWorld(w), script: script}
}

func (c *treeCall) args() []any { return []any{c.rw.Root, c.script} }

func (c *treeCall) state() any { return c.rw.ToWorld() }

// verify checks the restored world, aliases included, against the same
// script applied locally, and the method's return value.
func (c *treeCall) verify(rets []any) error {
	if len(rets) != 1 || rets[0] != len(c.script) {
		return fmt.Errorf("nrmi.Apply returned %v, want [%d]", rets, len(c.script))
	}
	return bench.Verify(c.rw.ToWorld(), bench.Expected(bench.ScenarioIII, c.seed, c.size, c.script))
}

// copyCall is one by-copy copy.OneWay call; the client's tree must come
// back unchanged.
type copyCall struct {
	seed   int64
	size   int
	root   *bench.Tree
	script bench.Script
}

func newCopyCall(seed int64, size int) *copyCall {
	w, script := bench.NewWorld(bench.ScenarioI, seed, size)
	return &copyCall{seed: seed, size: size, root: w.Root, script: script}
}

func (c *copyCall) args() []any { return []any{c.root, c.script} }

func (c *copyCall) state() any { return c.root }

func (c *copyCall) verify(rets []any) error {
	if len(rets) != 0 {
		return fmt.Errorf("copy.OneWay returned %v, want nothing", rets)
	}
	eq, err := graph.Equal(graph.AccessExported, c.root, bench.BuildTree(c.seed, c.size))
	if err != nil {
		return fmt.Errorf("comparing by-copy tree: %w", err)
	}
	if !eq {
		return fmt.Errorf("by-copy call changed the client's tree")
	}
	return nil
}

// macroCall is one copy-restore macro.Apply call on a MacroStore. The
// expected result is the script applied locally to a clone taken before
// the call.
type macroCall struct {
	store *bench.MacroStore
	want  *bench.MacroStore
	ops   []bench.MacroOp
}

func newMacroCall(seed int64, customers, nOps int) (*macroCall, error) {
	st := bench.NewMacroStore(seed, customers)
	clone, err := graph.Copy(graph.AccessExported, st)
	if err != nil {
		return nil, fmt.Errorf("cloning store: %w", err)
	}
	return &macroCall{store: st, want: clone.(*bench.MacroStore), ops: bench.GenMacroScript(seed, customers, nOps)}, nil
}

func (c *macroCall) args() []any { return []any{c.store, c.ops} }

func (c *macroCall) state() any { return c.store }

func (c *macroCall) verify(rets []any) error {
	bench.ApplyMacro(c.want, c.ops)
	if len(rets) != 1 || rets[0] != c.want.NextID {
		return fmt.Errorf("macro.Apply returned %v, want [%d]", rets, c.want.NextID)
	}
	eq, err := graph.Equal(graph.AccessExported, c.store, c.want)
	if err != nil {
		return fmt.Errorf("comparing stores: %w", err)
	}
	if !eq {
		return fmt.Errorf("restored store diverged from local execution")
	}
	return nil
}

// call is the common shape of the three call kinds.
type call interface {
	// args are the arguments as the client passes them.
	args() []any
	// state is the client-side graph the call may change, aliases
	// included, for comparing two executions of the same call.
	state() any
	// verify checks the call's results and the client's graph against a
	// local execution. It may be called once.
	verify(rets []any) error
}

// input is one call's arguments with the export and method it targets.
type input struct {
	call
	service, method string
}

// stub returns the stub addressing the input's export.
func (e *env) stub(in input) *nrmi.Stub {
	switch in.service {
	case "copy":
		return e.copy
	case "macro":
		return e.macro
	default:
		return e.nrmi
	}
}

// workload is a named workload with its configuration.
type workload struct {
	name string
	workloadConfig
}

// isMacro reports whether call i of the open-loop mix is a macro.Apply:
// one call in four is, the rest are copy.OneWay.
func isMacro(i int) bool { return i%4 == 3 }

// inputFor builds the inputs of call i of w from the run's seed.
func inputFor(w workload, seed int64, i int) (input, error) {
	s := callSeed(seed, i)
	if w.Loop != "open" {
		return input{call: newTreeCall(s, w.TreeNodes), service: "nrmi", method: "Apply"}, nil
	}
	if !isMacro(i) {
		return input{call: newCopyCall(s, w.Mix[0].TreeNodes), service: "copy", method: "OneWay"}, nil
	}
	mc, err := newMacroCall(s, w.Mix[1].MacroCustomers, w.Mix[1].MacroOps)
	if err != nil {
		return input{}, err
	}
	return input{call: mc, service: "macro", method: "Apply"}, nil
}

// inputs builds the inputs of calls [first, first+n).
func inputs(w workload, seed int64, first, n int) ([]input, error) {
	out := make([]input, n)
	for j := range out {
		in, err := inputFor(w, seed, first+j)
		if err != nil {
			return nil, err
		}
		out[j] = in
	}
	return out, nil
}
