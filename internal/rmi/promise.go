// Async promises and one-way calls: the pipelining layer (ROADMAP item 2).
// CallAsync issues a remote invocation without blocking on the round trip
// and returns a Promise; several promises in flight on one connection
// pipeline their round trips, so K calls cost ~1 network latency instead
// of K. CallOneWay goes further and elides the reply frame entirely.
//
// Restore semantics are where async gets sharp, and the rules are:
//
//   - A promise's restore commits when the promise is consumed (Wait,
//     or a composition that waits), never in the background: between
//     issue and Wait the caller's graph is untouched, exactly as if the
//     reply had not arrived yet.
//   - The restore set is the issue-time object set: the reply
//     overwrites exactly the objects the request carried, even if an
//     earlier commit or the caller re-linked the graph before Wait.
//   - Restore commits of concurrently in-flight calls over the same
//     client serialize on one commit lock (core.Call.SetCommitLock), so
//     two promises resolving together cannot interleave their overwrite
//     phases; order follows consumption order.
//   - Each promise keeps the two-phase bit-identical-on-failure
//     guarantee independently, and once its response bytes have been
//     consumed a failure is final (ResponseConsumedError) — the retry
//     policy refuses to re-send, same as the synchronous path.
//
// A Promise is owned by one goroutine at a time, like a *bytes.Buffer:
// issue it, hand it off if you like, but do not share it. (Promise
// resolution is driven lazily by Wait — there is no background goroutine
// racing the owner.)
package rmi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"nrmi/internal/core"
	"nrmi/internal/obs"
	"nrmi/internal/transport"
	"nrmi/internal/wire"
)

// Errors reported by the async layer.
var (
	// ErrPromiseAbandoned is reported by Wait on a promise that was
	// abandoned before consumption.
	ErrPromiseAbandoned = errors.New("rmi: promise abandoned")
	// ErrOneWayRestorable rejects one-way calls with restorable
	// arguments: with no reply frame there is nothing to restore from,
	// and silently degrading copy-restore to copy would betray the
	// natural-semantics contract.
	ErrOneWayRestorable = errors.New("rmi: one-way call cannot carry restorable arguments")
)

// promiseState is the settlement state of a Promise.
type promiseState uint8

const (
	promisePending promiseState = iota
	promiseResolved
	promiseRejected
	promiseAbandoned
)

// Promise is an in-flight asynchronous invocation started by CallAsync
// (or derived by Then). Consume it exactly once with Wait — which may be
// called repeatedly afterwards and keeps returning the settled outcome —
// or relinquish it with Abandon so its reply payload is recycled. A
// promise that is neither waited nor abandoned keeps its pooled request
// buffer until garbage collected.
type Promise struct {
	st     *Stub
	method string
	oc     *obs.Call

	// coreOpts is the engine configuration the request was encoded under;
	// it downgrades to V2 once if the peer rejects a V3 stream header.
	coreOpts core.Options
	call     *core.Call
	req      *bytes.Buffer
	// args are retained solely for the one-shot V2 re-encode fallback;
	// retries re-send the already-encoded bytes and never re-read them.
	args []any

	// pc is the transport half of the current attempt; sendErr is the
	// send failure when the attempt never got a pending call.
	pc      *transport.PendingCall
	sendErr error
	sentAt  time.Time
	attempt int

	state promiseState
	resp  *core.Response
	err   error

	// Derived-promise fields (Then): source resolves first, cont maps its
	// results to the next call, inner is that call once issued.
	source *Promise
	cont   func(rets []any) (*Promise, error)
	inner  *Promise
}

// CallAsync encodes method's arguments now — the linear map snapshots the
// argument graphs at issue time, exactly like a synchronous call's encode
// phase — sends the request, and returns without waiting for the reply.
// The returned promise pipelines with other in-flight calls on the same
// connection. Client interceptors (Options.Intercept) do not wrap async
// calls; the issue/await split has no single call body to wrap.
func (st *Stub) CallAsync(ctx context.Context, method string, args ...any) (*Promise, error) {
	c := st.c
	oc := obs.Begin(c.opts.Obs, st.object, method)
	p := &Promise{st: st, method: method, oc: oc}
	sp := oc.Start(obs.PhaseAsyncIssue)
	err := p.issue(ctx, args)
	sp.End()
	if err != nil {
		p.settle(nil, err)
		return nil, err
	}
	c.metrics.asyncIssued.Add(1)
	return p, nil
}

// issue encodes the request and sends attempt 1.
func (p *Promise) issue(ctx context.Context, args []any) error {
	c := p.st.c
	p.coreOpts = c.opts.Core
	if p.coreOpts.Engine == wire.EngineV3 && c.peerLacksV3(p.st.addr) {
		p.coreOpts.Engine = wire.EngineV2
	}
	p.args = args
	if err := p.encode(); err != nil {
		return err
	}
	return p.send(ctx)
}

// encode (re-)encodes the request under p.coreOpts into the retained
// pooled buffer. Retries re-send these exact bytes; only the V2 engine
// fallback ever encodes twice.
func (p *Promise) encode() error {
	c := p.st.c
	if p.req == nil {
		p.req = reqBufPool.Get().(*bytes.Buffer)
	}
	p.req.Reset()
	if p.call != nil {
		p.call.Release()
	}
	call := core.NewCall(p.req, p.coreOpts)
	call.SetObs(p.oc)
	p.oc.SetKernels(p.coreOpts.KernelsEnabled())
	p.call = call
	if err := p.st.encodeRequest(call, p.method, p.args); err != nil {
		return err
	}
	if call.NumRestorable() > 0 {
		// Serialize this call's restore commit against every other call
		// on the client; see the package comment's commit-ordering rules.
		call.SetCommitLock(&c.commitMu)
	}
	c.metrics.bytesSent.Add(int64(p.req.Len()))
	return nil
}

// send starts one transport attempt. A failure is recorded in sendErr and
// surfaces through the next awaitCurrent, keeping retry classification in
// one place (resolve).
func (p *Promise) send(ctx context.Context) error {
	c := p.st.c
	p.attempt++
	c.metrics.attempts.Add(1)
	if p.attempt > 1 {
		c.metrics.retries.Add(1)
	}
	p.pc, p.sendErr = nil, nil
	sctx := ctx
	cancel := func() {}
	if ct := c.opts.CallTimeout; ct > 0 {
		// The attempt deadline ships with the frame as the server-side
		// budget; the client-side half is re-derived from sentAt in
		// awaitCurrent, so Wait can come long after send.
		sctx, cancel = context.WithTimeout(ctx, ct)
	}
	tc, err := c.conn(p.st.addr)
	if err == nil {
		p.pc, err = tc.Start(sctx, transport.MsgCall, p.req.Bytes())
	}
	cancel()
	p.sentAt = time.Now()
	if err != nil {
		p.sendErr = err
	}
	return err
}

// awaitCurrent blocks for the current attempt's reply under the caller's
// context plus the per-attempt CallTimeout (measured from the send). A
// context expiry abandons the pending call, so the pooled reply payload
// is released exactly once whichever way the race goes.
func (p *Promise) awaitCurrent(ctx context.Context) ([]byte, error) {
	if p.pc == nil {
		return nil, p.sendErr
	}
	actx := ctx
	cancel := func() {}
	if ct := p.st.c.opts.CallTimeout; ct > 0 {
		actx, cancel = context.WithDeadline(ctx, p.sentAt.Add(ct))
	}
	payload, err := p.pc.Wait(actx)
	cancel()
	p.pc = nil
	return payload, err
}

// apply consumes the reply payload into the caller's graph. From here the
// call is never re-sent: ApplyResponseBytes validates fully before
// mutating (a failure leaves the graph bit-identical), and the error
// wraps as ResponseConsumedError, which Retryable refuses.
func (p *Promise) apply(payload []byte) (*core.Response, error) {
	c := p.st.c
	resp, err := p.call.ApplyResponseBytes(payload)
	c.releasePayload(payload)
	if err != nil {
		return nil, &ResponseConsumedError{Method: p.method, Err: err}
	}
	return resp, nil
}

// resolve drives the attempt/retry loop to a settled outcome, mirroring
// the synchronous invoke() but resuming from an already-sent attempt.
func (p *Promise) resolve(ctx context.Context) (*core.Response, error) {
	c := p.st.c
	pol := c.opts.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for {
		payload, err := p.awaitCurrent(ctx)
		if err == nil {
			return p.apply(payload)
		}
		if p.coreOpts.Engine == wire.EngineV3 && isUnknownEngineReject(err) {
			// One-shot V2 downgrade, the same negotiation as the sync
			// path: the rejection provably precedes argument decoding, so
			// re-sending under V2 cannot double-execute anything.
			c.noteV2Fallback(p.st.addr)
			p.coreOpts.Engine = wire.EngineV2
			if ferr := p.encode(); ferr != nil {
				return nil, ferr
			}
			// A failed re-send surfaces through the next awaitCurrent.
			_ = p.send(ctx)
			continue
		}
		if p.attempt >= attempts || !Retryable(err) || ctx.Err() != nil {
			return nil, err
		}
		pause := time.NewTimer(c.backoff(pol, p.attempt))
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			return nil, err
		}
		_ = p.send(ctx)
	}
}

// Wait blocks until the promise settles and returns the remote results.
// The first Wait consumes the reply and commits the restore (under the
// client's commit lock when the call shipped restorable arguments);
// subsequent Waits return the settled outcome without further effect.
func (p *Promise) Wait(ctx context.Context) ([]any, error) {
	resp, err := p.WaitStats(ctx)
	if err != nil {
		return nil, err
	}
	return resp.Returns, nil
}

// WaitStats is Wait, additionally exposing restore statistics and byte
// counts, the async counterpart of CallStats.
func (p *Promise) WaitStats(ctx context.Context) (*core.Response, error) {
	if p.cont != nil {
		return p.waitDerived(ctx)
	}
	switch p.state {
	case promiseResolved:
		return p.resp, nil
	case promiseRejected:
		return nil, p.err
	case promiseAbandoned:
		return nil, ErrPromiseAbandoned
	}
	sp := p.oc.Start(obs.PhaseAsyncAwait)
	resp, err := p.resolve(ctx)
	sp.End()
	p.settle(resp, err)
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// Ready reports, without blocking, whether Wait would settle without
// waiting on the network (reply delivered, or already settled). Derived
// promises are ready only once settled.
func (p *Promise) Ready() bool {
	if p.state != promisePending {
		return true
	}
	return p.cont == nil && p.pc != nil && p.pc.Ready()
}

// Abandon relinquishes an unconsumed promise: the pending reply payload
// is released exactly once (by the abandon itself or by the read loop,
// whichever side of the race holds it), the caller's graph stays
// untouched — the restore never commits — and later Waits report
// ErrPromiseAbandoned. Abandoning a settled promise is a no-op.
func (p *Promise) Abandon() {
	if p.state != promisePending {
		return
	}
	p.state = promiseAbandoned
	if p.cont != nil {
		if p.inner != nil {
			p.inner.Abandon()
		} else if p.source != nil {
			p.source.Abandon()
		}
		return
	}
	c := p.st.c
	if p.pc != nil {
		p.pc.Abandon()
		p.pc = nil
	}
	c.metrics.promisesAbandoned.Add(1)
	c.noteCall(0, ErrPromiseAbandoned)
	p.oc.Finish(ErrPromiseAbandoned)
	p.releaseResources()
}

// settle records the outcome and returns the promise's pooled resources.
func (p *Promise) settle(resp *core.Response, err error) {
	c := p.st.c
	var received int64
	if err == nil {
		p.state = promiseResolved
		p.resp = resp
		received = resp.BytesReceived
	} else {
		p.state = promiseRejected
		p.err = err
	}
	c.noteCall(received, err)
	p.oc.Finish(err)
	p.releaseResources()
}

// releaseResources returns the pooled encoder state and request buffer.
func (p *Promise) releaseResources() {
	if p.call != nil {
		p.call.Release()
		p.call = nil
	}
	if p.req != nil {
		p.req.Reset()
		reqBufPool.Put(p.req)
		p.req = nil
	}
	p.args = nil
	p.oc = nil
}

// Then derives a promise that, when waited, waits for p and feeds its
// results to f, which issues the dependent call (typically another
// CallAsync). The chain pipelines inside one Wait: the dependent request
// goes out the moment p's reply is consumed, with no control returned to
// the caller between the hops. An error anywhere rejects the chain.
func (p *Promise) Then(f func(rets []any) (*Promise, error)) *Promise {
	return &Promise{st: p.st, method: p.method, source: p, cont: f}
}

// waitDerived resolves a Then chain.
func (p *Promise) waitDerived(ctx context.Context) (*core.Response, error) {
	switch p.state {
	case promiseResolved:
		return p.resp, nil
	case promiseRejected:
		return nil, p.err
	case promiseAbandoned:
		return nil, ErrPromiseAbandoned
	}
	if p.inner == nil {
		rets, err := p.source.Wait(ctx)
		if err != nil {
			p.state = promiseRejected
			p.err = err
			return nil, err
		}
		next, err := p.cont(rets)
		if err == nil && next == nil {
			err = fmt.Errorf("rmi: Then continuation of %s returned no promise", p.method)
		}
		if err != nil {
			p.state = promiseRejected
			p.err = err
			return nil, err
		}
		p.inner = next
	}
	resp, err := p.inner.WaitStats(ctx)
	if err != nil {
		p.state = promiseRejected
		p.err = err
		return nil, err
	}
	p.state = promiseResolved
	p.resp = resp
	return resp, nil
}

// All waits for every promise in order and collects their return values.
// On the first failure the remaining unconsumed promises are abandoned —
// their replies recycled, their restores never committed — and the error
// (annotated with the failing index) is returned. Restores of the
// promises consumed before the failure remain committed: All is a join,
// not a transaction.
func All(ctx context.Context, ps ...*Promise) ([][]any, error) {
	results := make([][]any, len(ps))
	var firstErr error
	for i, p := range ps {
		if p == nil {
			continue
		}
		if firstErr != nil {
			p.Abandon()
			continue
		}
		rets, err := p.Wait(ctx)
		if err != nil {
			firstErr = fmt.Errorf("rmi: promise %d: %w", i, err)
			continue
		}
		results[i] = rets
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// oneWayArgOK mirrors encodeArg's semantics precedence: reference-passing
// arguments are fine one-way; restorable ones are not.
func oneWayArgOK(a any) bool {
	switch a.(type) {
	case *RemoteRef, RefHolder, Remote:
		return true
	case Restorable:
		return false
	default:
		return true
	}
}

// CallOneWay invokes method fire-and-forget: the request ships with the
// one-way wire flag, the server executes it but writes no reply frame
// (PROTOCOL.md section 10), and CallOneWay returns as soon as the frame
// is written. Restorable arguments are rejected — with no reply there is
// nothing to restore from. Failures are always send-phase (the frame
// provably never went out whole), so the retry policy may re-send without
// any at-least-once risk; a frame that did go out may still be lost with
// the connection, so delivery is at-most-once.
func (st *Stub) CallOneWay(ctx context.Context, method string, args ...any) error {
	c := st.c
	for i, a := range args {
		if !oneWayArgOK(a) {
			return fmt.Errorf("rmi: argument %d of %s: %w", i, method, ErrOneWayRestorable)
		}
	}
	oc := obs.Begin(c.opts.Obs, st.object, method)
	c.metrics.oneWays.Add(1)
	err := st.callOneWay(ctx, oc, method, args)
	c.noteCall(0, err)
	oc.Finish(err)
	return err
}

// callOneWay encodes and sends the one-way request.
func (st *Stub) callOneWay(ctx context.Context, oc *obs.Call, method string, args []any) error {
	c := st.c
	coreOpts := c.opts.Core
	if coreOpts.Engine == wire.EngineV3 {
		// One-way requests always encode V2: with no reply frame there is
		// no "unknown engine" rejection to negotiate on, and every server
		// version decodes V2.
		coreOpts.Engine = wire.EngineV2
	}
	req := reqBufPool.Get().(*bytes.Buffer)
	defer func() {
		req.Reset()
		reqBufPool.Put(req)
	}()
	call := core.NewCall(req, coreOpts)
	defer call.Release()
	call.SetObs(oc)
	oc.SetKernels(coreOpts.KernelsEnabled())

	sp := oc.Start(obs.PhaseEncode)
	err := st.encodeRequest(call, method, args)
	sp.EndBytes(int64(req.Len()))
	if err != nil {
		return err
	}
	c.metrics.bytesSent.Add(int64(req.Len()))

	sp = oc.Start(obs.PhaseTransport)
	err = st.invokeOneWay(ctx, req.Bytes())
	sp.End()
	return err
}

// invokeOneWay sends the encoded one-way request under the retry policy.
func (st *Stub) invokeOneWay(ctx context.Context, req []byte) error {
	c := st.c
	pol := c.opts.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 1; ; attempt++ {
		c.metrics.attempts.Add(1)
		if attempt > 1 {
			c.metrics.retries.Add(1)
		}
		err := st.sendOneWayOnce(ctx, req)
		if err == nil {
			return nil
		}
		if attempt >= attempts || !Retryable(err) || ctx.Err() != nil {
			return err
		}
		pause := time.NewTimer(c.backoff(pol, attempt))
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			return err
		}
	}
}

// sendOneWayOnce performs one send attempt over the pooled connection.
func (st *Stub) sendOneWayOnce(ctx context.Context, req []byte) error {
	c := st.c
	if c.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.CallTimeout)
		defer cancel()
	}
	tc, err := c.conn(st.addr)
	if err != nil {
		return err
	}
	return tc.CallOneWay(ctx, transport.MsgCall, req)
}
