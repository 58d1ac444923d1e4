package rmi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/obs"
	"nrmi/internal/registry"
	"nrmi/internal/transport"
)

// Dialer opens a connection to a named endpoint. netsim.Network.Dial and a
// closure over net.Dial both satisfy it.
type Dialer func(addr string) (net.Conn, error)

// Client issues remote invocations. It pools one transport connection per
// server address and is safe for concurrent use.
type Client struct {
	opts   Options
	dialer Dialer

	mu    sync.Mutex
	conns map[string]*transport.Conn

	// retryRng draws backoff jitter; seeded by RetryPolicy.Seed so retry
	// schedules are replayable in chaos runs.
	retryMu  sync.Mutex
	retryRng *rand.Rand

	// local is the client's own server, required for exporting Remote
	// arguments (callbacks) and for resolving references to local objects.
	local *Server

	// commitMu serializes response applies across this client's calls.
	// With promises, several replies can be consumed concurrently, and
	// their argument graphs may share objects: one call's restore walk
	// and validation must not read what another call's commit is
	// overwriting, so every call carrying restorable arguments applies
	// its response under this lock (core.Call.SetCommitLock). Calls
	// without restorable arguments never take it.
	commitMu sync.Mutex

	// metrics is the cumulative counter block behind Metrics().
	metrics clientMetrics
}

// NewClient returns a client using dialer to reach servers.
func NewClient(dialer Dialer, opts Options) (*Client, error) {
	if err := registerProtocolTypes(opts.registryOf()); err != nil {
		return nil, err
	}
	seed := opts.Retry.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Client{
		opts:     opts,
		dialer:   dialer,
		conns:    make(map[string]*transport.Conn),
		retryRng: rand.New(rand.NewSource(seed)),
	}, nil
}

// BindLocalServer attaches the client's own server, enabling Remote
// arguments (the callee receives references back into this process).
func (c *Client) BindLocalServer(s *Server) { c.local = s }

// conn returns the pooled connection to addr, dialing on first use. A
// pooled connection found dead is evicted and replaced before any request
// is sent, so transient server restarts do not permanently poison the
// pool; calls that fail mid-flight still surface their error (retrying a
// possibly executed call would silently break at-most-once semantics).
func (c *Client) conn(addr string) (*transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tc, ok := c.conns[addr]; ok {
		if !tc.IsClosed() {
			return tc, nil
		}
		// The health check failed: record *why* the connection died before
		// discarding it, so operators can tell a peer restart from a
		// partition from a local close when they read Metrics().
		c.metrics.noteEviction(evictionCause(tc.Err()))
		_ = tc.Close()
		delete(c.conns, addr)
		c.metrics.reconnects.Add(1)
	}
	nc, err := c.dialer(addr)
	if err != nil {
		return nil, err
	}
	c.metrics.dials.Add(1)
	tc := transport.NewConn(nc)
	if c.opts.Compress {
		tc.EnableCompression()
	}
	c.conns[addr] = tc
	return tc, nil
}

// Close releases all pooled connections.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for addr, tc := range c.conns {
		if err := tc.Close(); err != nil && first == nil {
			first = err
		}
		delete(c.conns, addr)
	}
	return first
}

// Registry returns a naming-service client talking to addr over the pooled
// connection.
func (c *Client) Registry(addr string) (*registry.Client, error) {
	tc, err := c.conn(addr)
	if err != nil {
		return nil, err
	}
	return registry.NewClient(tc), nil
}

// Stub addresses one exported object on one server.
type Stub struct {
	c      *Client
	addr   string
	object string
}

// Stub returns a stub for the named export on the server at addr.
func (c *Client) Stub(addr, object string) *Stub {
	return &Stub{c: c, addr: addr, object: object}
}

// RefStub returns a stub for a remote reference, used to invoke methods on
// anonymously exported objects (the call-by-reference access path).
func (c *Client) RefStub(ref *RemoteRef) *Stub {
	return &Stub{c: c, addr: ref.Addr, object: ref.objectKey()}
}

// LookupStub resolves name through the naming service at regAddr and
// returns a stub for the bound object.
func (c *Client) LookupStub(ctx context.Context, regAddr, name string) (*Stub, error) {
	reg, err := c.Registry(regAddr)
	if err != nil {
		return nil, err
	}
	e, err := reg.Lookup(ctx, name)
	if err != nil {
		return nil, err
	}
	return c.Stub(e.Addr, e.Object), nil
}

// Call invokes method with args and returns the remote results. Calling
// semantics per argument follow the type rules in the package comment.
func (st *Stub) Call(ctx context.Context, method string, args ...any) ([]any, error) {
	resp, err := st.CallStats(ctx, method, args...)
	if err != nil {
		return nil, err
	}
	return resp.Returns, nil
}

// CallStats is Call, additionally exposing restore statistics and byte
// counts for the experiment harness.
func (st *Stub) CallStats(ctx context.Context, method string, args ...any) (*core.Response, error) {
	if ic := st.c.opts.Intercept; ic != nil {
		var resp *core.Response
		info := CallInfo{Addr: st.addr, Object: st.object, Method: method, ArgCount: len(args)}
		err := ic(ctx, info, func(ctx context.Context) error {
			var err error
			resp, err = st.callStats(ctx, method, args...)
			return err
		})
		if err != nil {
			return nil, err
		}
		if resp == nil {
			return nil, fmt.Errorf("rmi: interceptor for %s skipped the call without error", method)
		}
		return resp, nil
	}
	return st.callStats(ctx, method, args...)
}

// reqBufPool recycles request encode buffers across calls; a buffer is
// reset and returned once its call has settled.
var reqBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// callStats runs one synchronous call: the promise pipeline, issued and
// then awaited on the caller's goroutine with no Promise handed out.
func (st *Stub) callStats(ctx context.Context, method string, args ...any) (*core.Response, error) {
	inv := invocation{st: st, method: method, oc: obs.Begin(st.c.opts.Obs, st.object, method)}
	resp, err := inv.run(ctx, args)
	inv.finish(resp, err)
	return resp, err
}

// invocation is one client call from encode to settlement, the state
// behind all three entry points: Call runs it to completion on the
// caller's goroutine, CallAsync hands it to a Promise after the first
// send, and CallOneWay runs it with the one-way send and no reply.
// Arguments are encoded exactly once; every attempt re-sends the
// identical request bytes, so a retried call can never ship different
// state than the original.
type invocation struct {
	st     *Stub
	method string
	oc     *obs.Call // nil when observability is disabled
	oneWay bool

	call *core.Call
	req  *bytes.Buffer

	// pc is the transport half of the current attempt; sendErr is the
	// send failure when the attempt never got a pending call. A one-way
	// attempt never gets one: its send is the whole attempt.
	pc      *transport.PendingCall
	sendErr error
	sentAt  time.Time
	attempt int
}

// run is a blocking call: encode, send, await the reply under the retry
// policy, then apply it (one-way calls stop once a send succeeds).
func (inv *invocation) run(ctx context.Context, args []any) (*core.Response, error) {
	sp := inv.oc.Start(obs.PhaseEncode)
	err := inv.encode(args)
	sp.EndBytes(int64(inv.req.Len()))
	if err != nil {
		return nil, err
	}
	sp = inv.oc.Start(obs.PhaseTransport)
	inv.send(ctx)
	payload, err := inv.await(ctx)
	sp.EndBytes(int64(len(payload)))
	if err != nil || inv.oneWay {
		return nil, err
	}
	return inv.apply(payload)
}

// encode writes the request into a pooled buffer under the client's
// configured engine. The linear map snapshots the argument graphs here,
// at issue time.
func (inv *invocation) encode(args []any) error {
	c := inv.st.c
	start := time.Now()
	inv.req = reqBufPool.Get().(*bytes.Buffer)
	inv.call = core.NewCall(inv.req, c.opts.Core)
	inv.call.SetObs(inv.oc)
	inv.oc.SetKernels(c.opts.Core.KernelsEnabled())
	if err := inv.st.encodeRequest(inv.call, inv.method, args); err != nil {
		return err
	}
	if inv.call.NumRestorable() > 0 {
		// Serialize this call's restore commit against every other call
		// on the client, sync or async; see the commit-ordering rules in
		// promise.go.
		inv.call.SetCommitLock(&c.commitMu)
	}
	c.opts.Host.Charge(time.Since(start))
	c.metrics.bytesSent.Add(int64(inv.req.Len()))
	return nil
}

// send starts one attempt over the pooled connection; a connection found
// dead is evicted and re-dialed first. A failure is recorded in sendErr
// and surfaces through await, keeping retry classification in one place.
func (inv *invocation) send(ctx context.Context) {
	c := inv.st.c
	inv.attempt++
	c.metrics.attempts.Add(1)
	if inv.attempt > 1 {
		c.metrics.retries.Add(1)
	}
	inv.pc = nil
	sctx, cancel := ctx, func() {}
	if ct := c.opts.CallTimeout; ct > 0 {
		// The attempt deadline ships with the frame as the server-side
		// budget; the client-side half is re-derived from sentAt in
		// awaitAttempt, so a promise's Wait can come long after send.
		sctx, cancel = context.WithTimeout(ctx, ct)
	}
	tc, err := c.conn(inv.st.addr)
	if err == nil {
		if inv.oneWay {
			err = tc.CallOneWay(sctx, transport.MsgCall, inv.req.Bytes())
		} else {
			inv.pc, err = tc.Start(sctx, transport.MsgCall, inv.req.Bytes())
		}
	}
	cancel()
	inv.sentAt = time.Now()
	inv.sendErr = err
}

// await drives the call to its reply payload: it waits for the current
// attempt and, after each failure the retry policy allows re-sending,
// backs off and sends again. This is the client's only retry loop. A
// one-way call succeeds once its frame is written, with a nil payload.
func (inv *invocation) await(ctx context.Context) ([]byte, error) {
	c := inv.st.c
	pol := c.opts.Retry.withDefaults()
	attempts := max(pol.MaxAttempts, 1)
	for {
		payload, err := inv.awaitAttempt(ctx)
		if err == nil {
			return payload, nil
		}
		if inv.attempt >= attempts || !Retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		pause := time.NewTimer(c.backoff(pol, inv.attempt))
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			return nil, err
		}
		inv.send(ctx)
	}
}

// awaitAttempt blocks for the current attempt's reply under the caller's
// context plus the per-attempt CallTimeout (measured from the send). A
// context expiry abandons the pending call, so the pooled reply payload
// is released exactly once whichever way the race goes.
func (inv *invocation) awaitAttempt(ctx context.Context) ([]byte, error) {
	if inv.pc == nil {
		return nil, inv.sendErr
	}
	actx, cancel := ctx, func() {}
	if ct := inv.st.c.opts.CallTimeout; ct > 0 {
		actx, cancel = context.WithDeadline(ctx, inv.sentAt.Add(ct))
	}
	payload, err := inv.pc.Wait(actx)
	cancel()
	inv.pc = nil
	return payload, err
}

// apply consumes the reply payload into the caller's graph. From here the
// call is never re-sent: ApplyResponseBytes validates fully before
// mutating (a failure leaves the graph bit-identical), and the error
// wraps as ResponseConsumedError, which Retryable refuses.
func (inv *invocation) apply(payload []byte) (*core.Response, error) {
	c := inv.st.c
	inv.oc.SetIO(int64(len(payload)), int64(inv.req.Len()))
	start := time.Now()
	resp, err := inv.call.ApplyResponseBytes(payload)
	// The pooled payload's ownership extends through the restore commit:
	// under engine V3 the content records are validated and committed
	// straight out of these bytes (zero-copy), so the release must not
	// happen until ApplyResponseBytes has returned. By then everything
	// retained has been written into the caller's graph (or, on error,
	// dropped), so the payload goes back regardless of the outcome.
	c.releasePayload(payload)
	if err != nil {
		return nil, &ResponseConsumedError{Method: inv.method, Err: err}
	}
	c.opts.Host.Charge(time.Since(start))
	return resp, nil
}

// finish records the settled outcome and returns the pooled encoder state
// and request buffer.
func (inv *invocation) finish(resp *core.Response, err error) {
	var received int64
	if resp != nil {
		received = resp.BytesReceived
	}
	inv.st.c.noteCall(received, err)
	inv.oc.Finish(err)
	if inv.call != nil {
		inv.call.Release()
		inv.call = nil
	}
	if inv.req != nil {
		inv.req.Reset()
		reqBufPool.Put(inv.req)
		inv.req = nil
	}
	inv.oc = nil
}

// encodeRequest writes the call header and arguments onto the request
// stream and flushes it.
func (st *Stub) encodeRequest(call *core.Call, method string, args []any) error {
	if err := call.EncodeString(st.object); err != nil {
		return err
	}
	if err := call.EncodeString(method); err != nil {
		return err
	}
	if err := call.EncodeUint(uint64(len(args))); err != nil {
		return err
	}
	for i, arg := range args {
		if err := st.c.encodeArg(call, arg); err != nil {
			return fmt.Errorf("rmi: argument %d of %s: %w", i, method, err)
		}
	}
	return call.Finish()
}

// encodeArg writes one argument with its semantics marker.
func (c *Client) encodeArg(call *core.Call, arg any) error {
	switch x := arg.(type) {
	case *RemoteRef:
		if err := call.EncodeUint(uint64(semRef)); err != nil {
			return err
		}
		return call.EncodeCopy(x)
	case RefHolder:
		if err := call.EncodeUint(uint64(semRef)); err != nil {
			return err
		}
		return call.EncodeCopy(x.NRMIRef())
	case Remote:
		if c.local == nil {
			return ErrNoLocalServer
		}
		ref, err := c.local.Ref(x)
		if err != nil {
			return err
		}
		if err := call.EncodeUint(uint64(semRef)); err != nil {
			return err
		}
		return call.EncodeCopy(ref)
	case Restorable:
		if err := call.EncodeUint(uint64(semRestore)); err != nil {
			return err
		}
		return call.EncodeRestorable(x)
	default:
		if err := call.EncodeUint(uint64(semCopy)); err != nil {
			return err
		}
		return call.EncodeCopy(arg)
	}
}

// Release sends a DGC clean message for ref, dropping one count on the
// exporting server. Stubs call it when the application is done with a
// reference.
func (c *Client) Release(ctx context.Context, ref *RemoteRef) error {
	var buf bytes.Buffer
	buf.WriteByte(dgcClean)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], ref.ID)])
	tc, err := c.conn(ref.Addr)
	if err != nil {
		return err
	}
	p, err := tc.Call(ctx, transport.MsgDGC, buf.Bytes())
	c.releasePayload(p)
	return err
}

// Renew refreshes the lease on ref for the given duration.
func (c *Client) Renew(ctx context.Context, ref *RemoteRef, lease time.Duration) error {
	var buf bytes.Buffer
	buf.WriteByte(dgcDirty)
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], ref.ID)])
	buf.Write(tmp[:binary.PutUvarint(tmp[:], uint64(lease/time.Second))])
	tc, err := c.conn(ref.Addr)
	if err != nil {
		return err
	}
	p, err := tc.Call(ctx, transport.MsgDGC, buf.Bytes())
	c.releasePayload(p)
	return err
}

// evictionCause reduces a dead connection's terminal error to a stable,
// low-cardinality label by unwrapping to the root sentinel — so a
// wrapped "partitioned: a <-> b" and "partitioned: c <-> d" count under
// one cause, not one per address pair.
func evictionCause(err error) string {
	if err == nil {
		return "unknown"
	}
	for {
		next := errors.Unwrap(err)
		if next == nil {
			return err.Error()
		}
		err = next
	}
}

// ConnState reports on the pooled connection to addr: whether one is
// pooled, how many of its calls are awaiting replies, and its health
// (nil while usable, the terminal error once dead). A dead pooled
// connection is reported as-is — eviction happens on the next call.
func (c *Client) ConnState(addr string) (pooled bool, inFlight int, err error) {
	c.mu.Lock()
	tc, ok := c.conns[addr]
	c.mu.Unlock()
	if !ok {
		return false, 0, nil
	}
	return true, tc.InFlight(), tc.Err()
}

// Ping round-trips a liveness probe to addr.
func (c *Client) Ping(ctx context.Context, addr string) error {
	tc, err := c.conn(addr)
	if err != nil {
		return err
	}
	p, err := tc.Call(ctx, transport.MsgPing, []byte("ping"))
	c.releasePayload(p)
	return err
}
