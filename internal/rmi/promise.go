// Async promises and one-way calls: the pipelining layer (ROADMAP item 2).
// CallAsync issues a remote invocation without blocking on the round trip
// and returns a Promise; several promises in flight on one connection
// pipeline their round trips, so K calls cost ~1 network latency instead
// of K. CallOneWay goes further and elides the reply frame entirely.
// Call, CallAsync and CallOneWay run one pipeline (the invocation in
// client.go): Call is CallAsync's issue followed by Wait's await, on the
// caller's goroutine.
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
	"context"
	"errors"
	"fmt"

	"nrmi/internal/core"
	"nrmi/internal/obs"
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
	// invocation is the call this promise resolves; a derived promise
	// (Then) uses only its st and method.
	invocation

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
// connection. Only an encode failure is returned here; a failed send
// surfaces from Wait, after the retry policy has had its attempts, exactly
// as it would from Call. Client interceptors (Options.Intercept) do not
// wrap async calls; the issue/await split has no single call body to wrap.
func (st *Stub) CallAsync(ctx context.Context, method string, args ...any) (*Promise, error) {
	c := st.c
	p := &Promise{invocation: invocation{st: st, method: method, oc: obs.Begin(c.opts.Obs, st.object, method)}}
	sp := p.oc.Start(obs.PhaseAsyncIssue)
	err := p.encode(args)
	if err == nil {
		p.send(ctx)
	}
	sp.End()
	if err != nil {
		p.finish(nil, err)
		return nil, err
	}
	c.metrics.asyncIssued.Add(1)
	return p, nil
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
	payload, err := p.await(ctx)
	var resp *core.Response
	if err == nil {
		resp, err = p.apply(payload)
	}
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
	if p.pc != nil {
		p.pc.Abandon()
		p.pc = nil
	}
	p.st.c.metrics.promisesAbandoned.Add(1)
	p.finish(nil, ErrPromiseAbandoned)
}

// settle records the outcome and returns the promise's pooled resources.
func (p *Promise) settle(resp *core.Response, err error) {
	if err == nil {
		p.state = promiseResolved
		p.resp = resp
	} else {
		p.state = promiseRejected
		p.err = err
	}
	p.finish(resp, err)
}

// Then derives a promise that, when waited, waits for p and feeds its
// results to f, which issues the dependent call (typically another
// CallAsync). The chain pipelines inside one Wait: the dependent request
// goes out the moment p's reply is consumed, with no control returned to
// the caller between the hops. An error anywhere rejects the chain.
func (p *Promise) Then(f func(rets []any) (*Promise, error)) *Promise {
	return &Promise{invocation: invocation{st: p.st, method: p.method}, source: p, cont: f}
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
	c.metrics.oneWays.Add(1)
	inv := invocation{st: st, method: method, oc: obs.Begin(c.opts.Obs, st.object, method), oneWay: true}
	_, err := inv.run(ctx, args)
	inv.finish(nil, err)
	return err
}
