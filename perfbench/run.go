package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nrmi"
	"nrmi/internal/load"
)

// window accumulates the measured segments of one run. Inputs are built
// before a segment's clock starts and checked after it stops, so only the
// calls themselves are timed.
type window struct {
	latUS      []float64 // per call, issue (or intended start) to return
	latenessUS []float64 // how late the generator issued each call
	// Per segment: verified calls per second, the reference time (the
	// mean of its timings before and after the calls, see reference),
	// and the calls' median time from issue to return.
	rates, refUS, serviceP50US []float64
	late                       int // calls issued more than one pacing interval late
	elapsed                    time.Duration
	attempted                  int
	failed                     int
	firstErr                   error

	mallocs, allocBytes uint64
	gcCycles, gcPauseNs uint64
	wireBytes           int64
	// Client and server counter deltas.
	attempts, retries, callErrors, rejected int64
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// enough reports whether the window has measured d and holds at least
// min latency and lateness samples.
func (w *window) enough(d time.Duration, min int) bool {
	return w.elapsed >= d && len(w.latUS) >= min && len(w.latenessUS) >= min
}

// runWindow runs segments of w, starting at call index first, until the
// window is enough for d and min, renewing e every envSegments segments.
// It returns the next unused call index.
func runWindow(ctx context.Context, e *env, w workload, seed int64, first int, d time.Duration, min int, rec *recorder) (*window, int, error) {
	acc := &window{}
	next := first
	for k := 0; !acc.enough(d, min); k++ {
		if k > 0 && k%envSegments == 0 {
			if err := e.renew(ctx); err != nil {
				return nil, next, err
			}
		}
		n, err := runSegment(ctx, e, w, seed, next, rec, acc)
		if err != nil {
			return nil, next, err
		}
		next += n
	}
	return acc, next, nil
}

// segmentCalls is how many calls one segment of w issues.
func segmentCalls(w workload) int {
	if w.Loop != "open" {
		return w.SegmentCalls
	}
	return openLoopCalls(w.OfferedRPS, time.Duration(w.SegmentSeconds*float64(time.Second)))
}

// openLoopCalls counts the calls load.Run issues in a window: every seq
// whose intended start falls before its end.
func openLoopCalls(rps float64, d time.Duration) int {
	n := 0
	for intendedOffset(rps, int64(n)) < d {
		n++
	}
	return n
}

// intendedOffset is call seq's intended start after the run's start, by
// the same formula load.Run uses.
func intendedOffset(rps float64, seq int64) time.Duration {
	return time.Duration(float64(seq) * float64(time.Second) / rps)
}

// segment is one segment's inputs and what the caller saw of each call.
// Call j has index first+j in the run.
type segment struct {
	e        *env
	rec      *recorder // nil when untraced
	first    int
	ins      []input
	rets     [][]any
	errs     []error
	lat      []time.Duration
	service  []time.Duration // issue to return; lat unless the loop is open
	lateness []time.Duration // -1 where the call had no due time
	issued   []bool
}

// begin opens call j's span when traced.
func (s *segment) begin(j int) int {
	if s.rec == nil {
		return -1
	}
	return s.rec.begin("rmi.call", -1, int64(s.first+j))
}

func (s *segment) finish(id int) {
	if s.rec != nil {
		s.rec.finish(id)
	}
}

// runSegment builds one segment's inputs, times its calls, then checks
// every result and adds the segment to acc.
func runSegment(ctx context.Context, e *env, w workload, seed int64, first int, rec *recorder, acc *window) (int, error) {
	n := segmentCalls(w)
	ins, err := inputs(w, seed, first, n)
	if err != nil {
		return 0, fmt.Errorf("building inputs: %w", err)
	}
	s := &segment{
		e: e, rec: rec, first: first, ins: ins,
		rets: make([][]any, n), errs: make([]error, n),
		lat: make([]time.Duration, n), service: make([]time.Duration, n),
		lateness: make([]time.Duration, n), issued: make([]bool, n),
	}

	// Collect the garbage of input generation and of the previous
	// segment's checks, so the window pays only for its own calls.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cm0, sm0 := e.cl.Metrics(), e.srv.Metrics()
	ref0 := reference()
	var elapsed time.Duration
	switch {
	case w.Loop == "open":
		var late int
		elapsed, late, err = s.open(ctx, w)
		acc.late += late
	case w.InFlight > 1:
		elapsed = s.pipelined(ctx, w.InFlight)
	default:
		elapsed = s.sync(ctx)
	}
	if err != nil {
		return 0, err
	}
	ref1 := reference()
	runtime.ReadMemStats(&m1)
	cm1, sm1 := e.cl.Metrics(), e.srv.Metrics()

	acc.elapsed += elapsed
	acc.mallocs += m1.Mallocs - m0.Mallocs
	acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	acc.gcCycles += uint64(m1.NumGC - m0.NumGC)
	acc.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	acc.wireBytes += cm1.BytesSent + cm1.BytesReceived - cm0.BytesSent - cm0.BytesReceived
	acc.attempts += cm1.Attempts - cm0.Attempts
	acc.retries += cm1.Retries - cm0.Retries
	acc.callErrors += cm1.CallErrors - cm0.CallErrors
	acc.rejected += sm1.CallsRejected - sm0.CallsRejected

	verified := 0
	var service []float64
	for j, in := range ins {
		acc.attempted++
		if !s.issued[j] {
			acc.fail(fmt.Errorf("call %d was never issued", first+j))
			continue
		}
		acc.latUS = append(acc.latUS, us(s.lat[j]))
		service = append(service, us(s.service[j]))
		if s.lateness[j] >= 0 {
			acc.latenessUS = append(acc.latenessUS, us(s.lateness[j]))
		}
		if s.errs[j] != nil {
			acc.fail(fmt.Errorf("call %d: %w", first+j, s.errs[j]))
			continue
		}
		if err := in.verify(s.rets[j]); err != nil {
			acc.fail(fmt.Errorf("call %d: %w", first+j, err))
			continue
		}
		verified++
	}
	acc.rates = append(acc.rates, float64(verified)/elapsed.Seconds())
	acc.refUS = append(acc.refUS, us(ref0+ref1)/2)
	acc.serviceP50US = append(acc.serviceP50US, median(service))
	return n, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sync issues the calls one after another from one caller. Lateness is
// the gap between one call's return and the next call's issue; the first
// call of a segment has none.
func (s *segment) sync(ctx context.Context) time.Duration {
	start := time.Now()
	prev := start
	for j, in := range s.ins {
		stub := s.e.stub(in)
		t0 := time.Now()
		s.lateness[j] = -1
		if j > 0 {
			s.lateness[j] = t0.Sub(prev)
		}
		id := s.begin(j)
		s.rets[j], s.errs[j] = stub.Call(ctx, in.method, in.args()...)
		s.finish(id)
		prev = time.Now()
		s.lat[j] = prev.Sub(t0)
		s.service[j] = s.lat[j]
		s.issued[j] = true
	}
	return time.Since(start)
}

// pipelined keeps up to inFlight CallAsync calls outstanding from one
// caller goroutine, waiting on the oldest and issuing the next call as
// soon as it returns. Latency runs from CallAsync to Wait's return;
// lateness is the gap between a Wait returning and the next issue.
func (s *segment) pipelined(ctx context.Context, inFlight int) time.Duration {
	type outstanding struct {
		j, span int
		p       *nrmi.Promise
		t0      time.Time
	}
	queue := make([]outstanding, 0, inFlight)
	next := 0
	issue := func(freed time.Time) {
		j := next
		next++
		in := s.ins[j]
		t0 := time.Now()
		s.lateness[j] = -1
		if !freed.IsZero() {
			s.lateness[j] = t0.Sub(freed)
		}
		id := s.begin(j)
		s.issued[j] = true
		p, err := s.e.stub(in).CallAsync(ctx, in.method, in.args()...)
		if err != nil {
			s.finish(id)
			s.lat[j] = time.Since(t0)
			s.service[j] = s.lat[j]
			s.errs[j] = err
			return
		}
		queue = append(queue, outstanding{j: j, span: id, p: p, t0: t0})
	}
	start := time.Now()
	for next < len(s.ins) && len(queue) < inFlight {
		issue(time.Time{})
	}
	for len(queue) > 0 {
		o := queue[0]
		queue = queue[1:]
		s.rets[o.j], s.errs[o.j] = o.p.Wait(ctx)
		s.finish(o.span)
		done := time.Now()
		s.lat[o.j] = done.Sub(o.t0)
		s.service[o.j] = s.lat[o.j]
		if next < len(s.ins) {
			issue(done)
		}
	}
	return time.Since(start)
}

// startClock is the wall clock, remembering its first reading: load.Run
// reads the clock once to fix the run's start before any worker starts,
// so that first reading is the origin of every intended start.
type startClock struct {
	load.Clock
	once  sync.Once
	start time.Time
}

func (c *startClock) Now() time.Time {
	t := c.Clock.Now()
	c.once.Do(func() { c.start = t })
	return t
}

// open paces the calls with load.Run at the workload's offered rate over
// its pacing workers. Latency runs from each call's intended start;
// lateness is how long after its intended start the call was issued. It
// returns how many calls were issued more than one pacing interval late.
func (s *segment) open(ctx context.Context, w workload) (time.Duration, int, error) {
	clock := &startClock{Clock: load.WallClock()}
	interval := intendedOffset(w.OfferedRPS, 1)
	cfg := load.Config{
		RPS:     w.OfferedRPS,
		Workers: w.PacingWorkers,
		Window:  time.Duration(w.SegmentSeconds * float64(time.Second)),
		Clock:   clock,
	}
	var late atomic.Int64
	target := func(ctx context.Context, seq int64) error {
		entry := time.Now()
		if seq >= int64(len(s.ins)) {
			return fmt.Errorf("load.Run issued call %d beyond the %d prepared", seq, len(s.ins))
		}
		j := int(seq)
		in := s.ins[j]
		intended := clock.start.Add(intendedOffset(w.OfferedRPS, seq))
		id := s.begin(j)
		s.rets[j], s.errs[j] = s.e.stub(in).Call(ctx, in.method, in.args()...)
		s.finish(id)
		s.lat[j] = time.Since(intended)
		s.service[j] = time.Since(entry)
		s.lateness[j] = entry.Sub(intended)
		if s.lateness[j] > interval {
			late.Add(1)
		}
		s.issued[j] = true
		return s.errs[j]
	}
	start := time.Now()
	rep, err := load.Run(ctx, cfg, target)
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, fmt.Errorf("load.Run: %w", err)
	}
	if rep.Issued != int64(len(s.ins)) {
		return 0, 0, fmt.Errorf("load.Run issued %d calls, want %d", rep.Issued, len(s.ins))
	}
	return elapsed, int(late.Load()), nil
}
