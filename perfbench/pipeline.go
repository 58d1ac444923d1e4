package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"nrmi"
	"nrmi/internal/bench"
	"nrmi/internal/core"
	"nrmi/internal/graph"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// groupSize is how many calls the decomposition handles together: the
// transport and, on pipelined workloads, the rmi layer are also timed with
// this many calls in flight.
const groupSize = 16

// Semantics markers of the request header (docs/PROTOCOL.md, section 3).
const (
	semCopy    = 0
	semRestore = 1
)

// samples holds per-layer observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// decomposer runs calls through the public entry points of graph, wire,
// core and transport one layer at a time, recording a span around each,
// and runs the same inputs through the rmi client for comparison. Nothing
// inside the program is instrumented: every span is taken here.
type decomposer struct {
	e     *env
	w     workload
	seed  int64
	rec   *recorder
	copts core.Options
	wopts wire.Options
	s     samples

	// The transport layer is timed against a server that answers every
	// request with a canned reply of replySize bytes.
	tsrv      *transport.Server
	tconn     *transport.Conn
	canned    []byte
	replySize atomic.Int64

	countAllocs bool
	attempted   int
	failed      int
	firstErr    error
}

// newDecomposer starts the canned-reply transport server and connects to
// it. The codec options are the ones nrmi.Options{Registry: reg} lowers to.
func newDecomposer(e *env, w workload, seed int64, rec *recorder) (*decomposer, error) {
	d := &decomposer{
		e:      e,
		w:      w,
		seed:   seed,
		rec:    rec,
		copts:  core.Options{Registry: e.reg, Access: graph.AccessExported, Policy: core.PolicyFull},
		wopts:  wire.Options{Registry: e.reg, Access: graph.AccessExported},
		s:      samples{},
		canned: make([]byte, 1<<20),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for the transport server: %w", err)
	}
	d.tsrv = transport.Serve(ln, func(context.Context, byte, []byte) ([]byte, error) {
		return d.canned[:d.replySize.Load()], nil
	})
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		_ = d.tsrv.Close()
		return nil, fmt.Errorf("dialing the transport server: %w", err)
	}
	d.tconn = transport.NewConn(nc)
	return d, nil
}

func (d *decomposer) close() {
	_ = d.tconn.Close()
	_ = d.tsrv.Close()
}

func (d *decomposer) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// step runs f as the layer step name. In timing mode it records a span
// under parent and returns its duration; in counting mode it records the
// heap allocations f made as the sample name_allocs instead.
func (d *decomposer) step(name string, parent int, cid int64, f func() error) (time.Duration, error) {
	if d.countAllocs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := f()
		runtime.ReadMemStats(&m1)
		d.s.add(name+"_allocs", float64(m1.Mallocs-m0.Mallocs))
		return 0, err
	}
	id := d.rec.begin(name, parent, cid)
	err := f()
	return d.rec.finish(id), err
}

// pipeCall is one call taken apart: its request and reply bytes, the
// summed time of its core and app spans, and its transport round trip.
type pipeCall struct {
	req        []byte
	replyBytes int
	coreApp    time.Duration
	roundTrip  time.Duration
}

// restorable splits args into the copy-restore argument (nil if none)
// and the by-copy ones.
func restorable(args []any) (any, []any) {
	var r any
	var byCopy []any
	for _, a := range args {
		if _, ok := a.(nrmi.Restorable); ok && r == nil {
			r = a
		} else {
			byCopy = append(byCopy, a)
		}
	}
	return r, byCopy
}

// encodeRequest writes the request header and arguments the way the rmi
// client does: object key, method, argument count, then a semantics
// marker before each argument.
func encodeRequest(c *core.Call, service, method string, args []any) error {
	if err := c.EncodeString(service); err != nil {
		return err
	}
	if err := c.EncodeString(method); err != nil {
		return err
	}
	if err := c.EncodeUint(uint64(len(args))); err != nil {
		return err
	}
	for _, a := range args {
		if _, ok := a.(nrmi.Restorable); ok {
			if err := c.EncodeUint(semRestore); err != nil {
				return err
			}
			if err := c.EncodeRestorable(a); err != nil {
				return err
			}
			continue
		}
		if err := c.EncodeUint(semCopy); err != nil {
			return err
		}
		if err := c.EncodeCopy(a); err != nil {
			return err
		}
	}
	return c.Finish()
}

// decodeRequest reads what encodeRequest wrote, as the rmi server does.
func decodeRequest(sc *core.ServerCall) (service, method string, args []any, err error) {
	if service, err = sc.DecodeString(); err != nil {
		return "", "", nil, err
	}
	if method, err = sc.DecodeString(); err != nil {
		return "", "", nil, err
	}
	n, err := sc.DecodeUint()
	if err != nil {
		return "", "", nil, err
	}
	for i := uint64(0); i < n; i++ {
		sem, err := sc.DecodeUint()
		if err != nil {
			return "", "", nil, err
		}
		var a any
		switch sem {
		case semCopy:
			a, err = sc.DecodeCopy()
		case semRestore:
			a, err = sc.DecodeRestorable()
		default:
			err = fmt.Errorf("unknown semantics marker %d", sem)
		}
		if err != nil {
			return "", "", nil, err
		}
		args = append(args, a)
	}
	return service, method, args, nil
}

// execute runs the method body on the decoded arguments and returns its
// results as the rmi server would encode them.
func execute(service, method string, args []any) ([]any, error) {
	if len(args) != 2 {
		return nil, fmt.Errorf("%s.%s takes 2 arguments, got %d", service, method, len(args))
	}
	bad := func() error {
		return fmt.Errorf("unexpected arguments for %s.%s: %T, %T", service, method, args[0], args[1])
	}
	switch service + "." + method {
	case "nrmi.Apply":
		root, ok1 := args[0].(*bench.RTree)
		script, ok2 := args[1].(bench.Script)
		if !ok1 || !ok2 {
			return nil, bad()
		}
		return []any{(&bench.NRMIService{}).Apply(root, script)}, nil
	case "copy.OneWay":
		root, ok1 := args[0].(*bench.Tree)
		script, ok2 := args[1].(bench.Script)
		if !ok1 || !ok2 {
			return nil, bad()
		}
		(&bench.CopyService{}).OneWay(root, script)
		return []any{}, nil
	case "macro.Apply":
		st, ok1 := args[0].(*bench.MacroStore)
		ops, ok2 := args[1].([]bench.MacroOp)
		if !ok1 || !ok2 {
			return nil, bad()
		}
		return []any{(&bench.MacroService{}).Apply(st, ops)}, nil
	}
	return nil, fmt.Errorf("no method %s.%s", service, method)
}

// coreAppSteps are the steps that, with the transport's, are subtracted
// from rmi.call_us to get rmi.self_us.
var coreAppSteps = map[string]bool{
	"core.request_encode": true, "core.server_decode": true, "core.prepare": true,
	"app.execute": true, "core.response_encode": true, "core.apply": true,
}

// pipeline takes call cid of input in through every layer, restoring into
// in's own graph, and checks the client-visible result.
func (d *decomposer) pipeline(ctx context.Context, in input, cid int64) (pipeCall, error) {
	var pc pipeCall
	root := -1
	if !d.countAllocs {
		root = d.rec.begin("pipeline", -1, cid)
		defer d.rec.finish(root)
	}
	step := func(name string, f func() error) error {
		dur, err := d.step(name, root, cid, f)
		if !d.countAllocs {
			d.s.add(name+"_us", us(dur))
		}
		switch {
		case name == "transport.round_trip":
			pc.roundTrip = dur
		case coreAppSteps[name]:
			pc.coreApp += dur
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	args := in.args()
	r, byCopy := restorable(args)
	if r != nil {
		var lm *graph.LinearMap
		if err := step("graph.walk", func() (err error) {
			lm, err = graph.Walk(graph.AccessExported, r)
			return err
		}); err != nil {
			return pc, err
		}
		d.s.add("graph.objects", float64(lm.Len()))
	}

	var wbuf bytes.Buffer
	if err := step("wire.encode", func() error {
		enc := wire.NewEncoder(&wbuf, d.wopts)
		for _, a := range byCopy {
			if err := enc.Encode(a); err != nil {
				return err
			}
		}
		return enc.Flush()
	}); err != nil {
		return pc, err
	}
	d.s.add("wire.bytes", float64(wbuf.Len()))
	if err := step("wire.decode", func() error {
		dec := wire.NewDecoderBytes(wbuf.Bytes(), d.wopts)
		for range byCopy {
			if _, err := dec.Decode(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return pc, err
	}

	var req bytes.Buffer
	cc := core.NewCall(&req, d.copts)
	defer cc.Release()
	if err := step("core.request_encode", func() error {
		return encodeRequest(cc, in.service, in.method, args)
	}); err != nil {
		return pc, err
	}
	pc.req = req.Bytes()
	d.s.add("core.request_bytes", float64(req.Len()))

	var sc *core.ServerCall
	var dargs []any
	if err := step("core.server_decode", func() (err error) {
		sc = core.AcceptCallBytes(pc.req, d.copts)
		_, _, dargs, err = decodeRequest(sc)
		return err
	}); err != nil {
		return pc, err
	}
	defer sc.Release()
	if err := step("core.prepare", sc.Prepare); err != nil {
		return pc, err
	}
	var rets []any
	if err := step("app.execute", func() (err error) {
		rets, err = execute(in.service, in.method, dargs)
		return err
	}); err != nil {
		return pc, err
	}
	var reply bytes.Buffer
	if err := step("core.response_encode", func() error {
		_, err := sc.EncodeResponse(&reply, rets)
		return err
	}); err != nil {
		return pc, err
	}
	pc.replyBytes = reply.Len()
	d.s.add("core.reply_bytes", float64(reply.Len()))

	if reply.Len() > len(d.canned) {
		return pc, fmt.Errorf("reply of %d bytes exceeds the canned %d", reply.Len(), len(d.canned))
	}
	d.replySize.Store(int64(reply.Len()))
	if err := step("transport.round_trip", func() error {
		p, err := d.tconn.Call(ctx, transport.MsgCall, pc.req)
		if err != nil {
			return err
		}
		n := len(p)
		transport.ReleasePayload(p)
		if n != reply.Len() {
			return fmt.Errorf("canned reply of %d bytes, want %d", n, reply.Len())
		}
		return nil
	}); err != nil {
		return pc, err
	}

	var resp *core.Response
	if err := step("core.apply", func() (err error) {
		resp, err = cc.ApplyResponseBytes(reply.Bytes())
		return err
	}); err != nil {
		return pc, err
	}
	d.s.add("core.restored", float64(resp.Restored))
	d.s.add("core.new_objects", float64(resp.NewObjects))
	if int(resp.BytesReceived) != reply.Len() {
		return pc, fmt.Errorf("client consumed %d reply bytes of %d", resp.BytesReceived, reply.Len())
	}
	return pc, nil
}

// transportPipelined sends the group's requests with Start and then waits
// for every reply, each a canned reply of the group's mean reply size.
func (d *decomposer) transportPipelined(ctx context.Context, pcs []pipeCall, cid int64) (time.Duration, error) {
	total := 0
	for _, pc := range pcs {
		total += pc.replyBytes
	}
	size := total / len(pcs)
	d.replySize.Store(int64(size))
	pending := make([]*transport.PendingCall, 0, len(pcs))
	dur, err := d.step("transport.pipelined", -1, cid, func() error {
		for _, pc := range pcs {
			p, err := d.tconn.Start(ctx, transport.MsgCall, pc.req)
			if err != nil {
				return err
			}
			pending = append(pending, p)
		}
		var firstErr error
		for _, p := range pending {
			payload, err := p.Wait(ctx)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if len(payload) != size && firstErr == nil {
				firstErr = fmt.Errorf("canned reply of %d bytes, want %d", len(payload), size)
			}
			transport.ReleasePayload(payload)
		}
		return firstErr
	})
	return dur, err
}

// rmiCalls runs fresh copies of the group's inputs through the rmi client,
// synchronously one by one, or all in flight at once on a pipelined
// workload. It returns each call's time (on a pipelined workload the
// group's time shared evenly) and the client's wire bytes.
func (d *decomposer) rmiCalls(ctx context.Context, ins []input, first int64) ([]time.Duration, int64, error) {
	cm0 := d.e.cl.Metrics()
	durs := make([]time.Duration, len(ins))
	var rets [][]any
	if d.w.InFlight > 1 {
		var ps []*nrmi.Promise
		dur, err := d.step("rmi.call", -1, first, func() error {
			for _, in := range ins {
				p, err := d.e.stub(in).CallAsync(ctx, in.method, in.args()...)
				if err != nil {
					for _, q := range ps {
						q.Abandon()
					}
					return err
				}
				ps = append(ps, p)
			}
			var err error
			rets, err = nrmi.All(ctx, ps...)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("rmi.call: %w", err)
		}
		for j := range durs {
			durs[j] = dur / time.Duration(len(ins))
		}
	} else {
		for j, in := range ins {
			var r []any
			dur, err := d.step("rmi.call", -1, first+int64(j), func() (err error) {
				r, err = d.e.stub(in).Call(ctx, in.method, in.args()...)
				return err
			})
			if err != nil {
				return nil, 0, fmt.Errorf("rmi.call: %w", err)
			}
			durs[j] = dur
			rets = append(rets, r)
		}
	}
	cm1 := d.e.cl.Metrics()
	for j, in := range ins {
		if err := in.verify(rets[j]); err != nil {
			return nil, 0, fmt.Errorf("rmi call %d: %w", first+int64(j), err)
		}
	}
	return durs, cm1.BytesSent + cm1.BytesReceived - cm0.BytesSent - cm0.BytesReceived, nil
}

// group decomposes calls [first, first+groupSize): each through the
// layers, then all of them through the pipelined transport and through
// the rmi client. It checks that both executions restore the same graph
// and that the layers' byte counts match the client's.
func (d *decomposer) group(ctx context.Context, first int) error {
	layerIns, err := inputs(d.w, d.seed, first, groupSize)
	if err != nil {
		return err
	}
	rmiIns, err := inputs(d.w, d.seed, first, groupSize)
	if err != nil {
		return err
	}
	runtime.GC()
	pcs := make([]pipeCall, groupSize)
	for j, in := range layerIns {
		pc, err := d.pipeline(ctx, in, int64(first+j))
		if err != nil {
			return fmt.Errorf("call %d: %w", first+j, err)
		}
		pcs[j] = pc
	}
	tpipe, err := d.transportPipelined(ctx, pcs, int64(first))
	if err != nil {
		return fmt.Errorf("transport.pipelined: %w", err)
	}
	rmiDurs, rmiBytes, err := d.rmiCalls(ctx, rmiIns, int64(first))
	if err != nil {
		return err
	}

	var layerBytes int64
	var coreApp time.Duration
	for _, pc := range pcs {
		layerBytes += int64(len(pc.req) + pc.replyBytes)
		coreApp += pc.coreApp
	}
	if layerBytes != rmiBytes {
		d.fail(fmt.Errorf("calls %d..%d: layers moved %d bytes, the rmi client %d", first, first+groupSize-1, layerBytes, rmiBytes))
	}
	for j := range layerIns {
		d.attempted++
		eq, err := graph.Equal(graph.AccessExported, layerIns[j].state(), rmiIns[j].state())
		if err != nil || !eq {
			d.fail(fmt.Errorf("call %d: the layers and Stub.Call restored different graphs (%v)", first+j, err))
		}
	}
	if d.countAllocs {
		return nil
	}
	d.s.add("transport.pipelined_us", us(tpipe)/groupSize)
	if d.w.InFlight > 1 {
		per := rmiDurs[0]
		d.s.add("rmi.call_us", us(per))
		d.s.add("rmi.self_us", us(per)-us(tpipe+coreApp)/groupSize)
		return nil
	}
	for j, dur := range rmiDurs {
		d.s.add("rmi.call_us", us(dur))
		d.s.add("rmi.self_us", us(dur-pcs[j].coreApp-pcs[j].roundTrip))
	}
	return nil
}
