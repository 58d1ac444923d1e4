package core

import (
	"bytes"
	"testing"

	"nrmi/internal/raceflag"
)

// TestRestoreAllocsSteadyState pins the allocation profile of both halves of
// a scenario-III round trip on the compiled-kernel path, once the kernel
// caches and codec pools are warm: a 1024-node tree with aliases whose
// remote method edits payloads and attaches new nodes.
//
//   - The server decodes each request object into the one allocation that
//     object is.
//   - The client applies the reply with one staging temporary per restored
//     object (the two-phase commit needs it) and one allocation per new
//     object: seeding shares the request encoder's reference cells, content
//     records decode straight into their temporaries, and the commit loop
//     allocates nothing.
func TestRestoreAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops Puts)")
	}
	const (
		size  = 1024
		runs  = 10
		slack = 16 // per-call constants: Response, ServerCall, update list, ...
	)
	opts := testOptions(t)
	script := genScript(1, size, size/4)

	// request encodes a fresh world's root as a restorable argument.
	request := func() (*Call, []byte) {
		w := genWorld(1, size)
		var req bytes.Buffer
		call := NewCall(&req, opts)
		if err := call.EncodeRestorable(w.Root); err != nil {
			t.Fatal(err)
		}
		if err := call.Finish(); err != nil {
			t.Fatal(err)
		}
		return call, req.Bytes()
	}

	t.Run("server-decode", func(t *testing.T) {
		call, req := request()
		defer call.Release()
		objects := 0
		decode := func() {
			srv := AcceptCallBytes(req, opts)
			if _, err := srv.DecodeRestorable(); err != nil {
				t.Fatal(err)
			}
			objects = len(srv.dec.Objects())
			srv.Release()
		}
		decode() // warm the decoder pool to the table's size
		avg := testing.AllocsPerRun(runs, decode)
		t.Logf("DecodeRestorable: %.0f allocs for %d objects", avg, objects)
		if budget := float64(objects + slack); avg > budget {
			t.Fatalf("DecodeRestorable allocates %.0f per call for %d objects, budget %.0f", avg, objects, budget)
		}
	})

	t.Run("client-apply", func(t *testing.T) {
		type pending struct {
			call  *Call
			reply []byte
		}
		// AllocsPerRun runs its function runs+1 times; each apply consumes
		// its own prepared call.
		calls := make([]pending, runs+1)
		for i := range calls {
			call, req := request()
			srv := AcceptCallBytes(req, opts)
			sroot, err := srv.DecodeRestorable()
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Prepare(); err != nil {
				t.Fatal(err)
			}
			applyScript(sroot.(*Tree), script)
			var reply bytes.Buffer
			if _, err := srv.EncodeResponse(&reply, nil); err != nil {
				t.Fatal(err)
			}
			srv.Release()
			calls[i] = pending{call: call, reply: reply.Bytes()}
		}
		defer func() {
			for _, p := range calls {
				p.call.Release()
			}
		}()
		next := 0
		var resp *Response
		avg := testing.AllocsPerRun(runs, func() {
			p := calls[next]
			next++
			var err error
			if resp, err = p.call.ApplyResponseBytes(p.reply); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("ApplyResponseBytes: %.0f allocs for %d restored + %d new objects", avg, resp.Restored, resp.NewObjects)
		if resp.Restored < size || resp.NewObjects == 0 {
			t.Fatalf("scenario too small: %d restored, %d new", resp.Restored, resp.NewObjects)
		}
		if budget := float64(resp.Restored + resp.NewObjects + slack); avg > budget {
			t.Fatalf("ApplyResponseBytes allocates %.0f per call for %d restored + %d new objects, budget %.0f",
				avg, resp.Restored, resp.NewObjects, budget)
		}
	})
}
