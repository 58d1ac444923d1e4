// Command perfbench is the end-to-end benchmark of copy-restore calls. It
// drives the public nrmi API with default options over TCP loopback in
// one process, on inputs generated from --seed by internal/bench, and
// checks every call against a local execution outside the timed window.
//
// With --trace 0 it prints the end-to-end metrics of one workload; with
// --trace 1 it times the public entry points of graph, wire, core,
// transport, rmi and load from its own code on the same inputs and prints
// the per-layer metrics. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tree-restore-1k --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupProbes is how many cold starts setup_s is the median of.
const setupProbes = 11

// nominalRefUS converts set-up time in reference units back to seconds:
// setup_s is the set-up time on a host whose reference work takes this
// long (the 2-vCPU host the benchmark was written on measured 300-330 us).
// Unlike the other timings, setup_s must be in seconds, and a cold start
// is as sensitive to how busy the host is as a call.
const nominalRefUS = 300

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit; the lists below are the ones
// BENCHMARK.json declares, in print order.
//
// Throughput and latency are declared in units of the reference work
// (ref, see reference), measured next to every segment: on a shared host
// their values in seconds drift by more than any useful bound from run to
// run, their ratios to the reference do not. call_p50_ref times a call
// from its issue, also in the open loop, where the generator's own
// lateness (load.lateness_*) does not scale with the host's speed; the
// printed call_p50_us times it from its intended start. The run also
// prints, without
// declaring them, calls_per_s and call_p50_us in seconds, call_p99_us and
// peak_rss_mb, which spread too widely to bound a regression, and
// failed_frac and late_frac, which are zero when the run is correct.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"calls_per_ref", "1/ref"},
	{"call_p50_ref", "ref"},
	{"wire_bytes_per_call", "bytes"},
	{"allocs_per_call", "count"},
	{"alloc_bytes_per_call", "bytes"},
}

var perLayer = []metricDef{
	{"graph.walk_us", "us"},
	{"graph.walk_allocs", "count"},
	{"graph.objects", "count"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.encode_allocs", "count"},
	{"wire.decode_allocs", "count"},
	{"wire.bytes", "bytes"},
	{"core.request_encode_us", "us"},
	{"core.request_encode_allocs", "count"},
	{"core.request_bytes", "bytes"},
	{"core.server_decode_us", "us"},
	{"core.server_decode_allocs", "count"},
	{"core.prepare_us", "us"},
	{"core.prepare_allocs", "count"},
	{"core.response_encode_us", "us"},
	{"core.response_encode_allocs", "count"},
	{"core.reply_bytes", "bytes"},
	{"core.apply_us", "us"},
	{"core.apply_allocs", "count"},
	{"core.restored", "count"},
	{"core.new_objects", "count"},
	{"app.execute_us", "us"},
	{"transport.round_trip_us", "us"},
	{"transport.pipelined_us", "us"},
	{"transport.round_trip_allocs", "count"},
	{"rmi.call_us", "us"},
	{"rmi.self_us", "us"},
	{"rmi.attempts", "count"},
	{"rmi.retries", "count"},
	{"rmi.errors", "count"},
	{"rmi.server_rejected", "count"},
	{"load.lateness_p50_us", "us"},
	{"load.lateness_p99_us", "us"},
	{"gc.cycles_per_kcall", "1/kcall"},
	{"gc.pause_us_per_call", "us"},
	{"split.graph_core_pct", "%"},
	{"split.transport_rmi_pct", "%"},
	{"trace.overhead_us", "us"},
}

func main() {
	name := flag.String("workload", "", "workload name (see perfbench/workloads.json)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead")
	traceOut := flag.String("trace-out", "", "file the traced run writes its spans to (default .bench_build/trace-<workload>-<seed>.jsonl)")
	probe := flag.Bool("setup-probe", false, "internal: time one cold start and print it")
	flag.Parse()

	wc, err := loadWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w := workload{name: *name, workloadConfig: wc}
	ctx := context.Background()
	if *probe {
		d, err := setupProbe(ctx, w, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		fmt.Println(strconv.FormatFloat(d.Seconds(), 'g', -1, 64), strconv.FormatFloat(us(reference()), 'g', -1, 64))
		return
	}
	d := time.Duration(*seconds * float64(time.Second))
	var out *output
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", w.name, *seed)
		}
		out, err = runTraced(ctx, w, *seed, d, path)
	} else {
		out, err = runPlain(ctx, w, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !out.print(os.Stdout) {
		os.Exit(1)
	}
}

// output is one run's report.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	lines    []string
	firstErr error
}

func (o *output) set(defs []metricDef, name string, v float64, note string) {
	for _, d := range defs {
		if d.name == name {
			o.Metrics[name] = metric{Value: v, Unit: d.unit}
			o.note(fmt.Sprintf("%-28s %16.4f %-8s %s", name, v, d.unit, note))
			return
		}
	}
	panic("perfbench: undeclared metric " + name)
}

func (o *output) note(line string) { o.lines = append(o.lines, line) }

// print writes the report, the JSON object last, and reports whether
// every call was correct.
func (o *output) print(f *os.File) bool {
	w := bufio.NewWriter(f)
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	if o.firstErr != nil {
		fmt.Fprintln(w, "first failure:", o.firstErr)
	}
	b, err := json.Marshal(o)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(b))
	_ = w.Flush()
	return o.Correct
}

func newOutput(w workload, seed int64, d time.Duration, trace int) *output {
	o := &output{Metrics: map[string]metric{}}
	o.note(fmt.Sprintf("workload %s seed %d seconds %g trace %d: %s", w.name, seed, d.Seconds(), trace, w.Why))
	o.note("traffic: one process, host TCP loopback, nrmi.Options{Registry} defaults")
	return o
}

// account adds windows' call counts to o.
func (o *output) account(ws ...*window) {
	for _, w := range ws {
		o.Attempted += w.attempted
		o.Failed += w.failed
		if o.firstErr == nil {
			o.firstErr = w.firstErr
		}
	}
	o.Correct = o.Failed == 0
}

// runPlain measures the end-to-end metrics.
func runPlain(ctx context.Context, w workload, seed int64, d time.Duration) (*output, error) {
	setupSecs, setupRefUS, err := measureSetup(ctx, w, seed)
	if err != nil {
		return nil, err
	}
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.close()
	// One unmeasured segment lets plan caches, pools and the connection
	// reach their steady state.
	warm, next, err := runWindow(ctx, e, w, seed, 0, 1, 1, nil)
	if err != nil {
		return nil, err
	}
	win, _, err := runWindow(ctx, e, w, seed, next, d, blockCalls, nil)
	if err != nil {
		return nil, err
	}
	lat, err := summarize(win.latUS)
	if err != nil {
		return nil, fmt.Errorf("call latency: %w", err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	o := newOutput(w, seed, d, 0)
	o.account(warm, win)
	n := float64(win.attempted)
	verified := win.attempted - win.failed
	setups := make([]float64, len(setupSecs))
	for i, s := range setupSecs {
		setups[i] = s * nominalRefUS / setupRefUS[i]
	}
	o.set(endToEnd, "setup_s", median(setups), fmt.Sprintf("median of %d cold starts, each scaled to a %d us reference", len(setups), nominalRefUS))
	perRef, p50Ref := make([]float64, len(win.rates)), make([]float64, len(win.rates))
	for i, r := range win.rates {
		perRef[i] = r * win.refUS[i] / 1e6
		p50Ref[i] = win.serviceP50US[i] / win.refUS[i]
	}
	o.set(endToEnd, "calls_per_ref", median(perRef), fmt.Sprintf("median of %d segments, each calls per second times its reference time", len(perRef)))
	o.set(endToEnd, "call_p50_ref", median(p50Ref), fmt.Sprintf("median of %d segments, each median issue-to-return time over its reference time", len(p50Ref)))
	o.set(endToEnd, "wire_bytes_per_call", float64(win.wireBytes)/n, "Client.Metrics BytesSent+BytesReceived")
	o.set(endToEnd, "allocs_per_call", float64(win.mallocs)/n, "process-wide")
	o.set(endToEnd, "alloc_bytes_per_call", float64(win.allocBytes)/n, "process-wide")
	o.note(fmt.Sprintf("%-28s %16.4f %-8s median of %d cold starts as measured %s", "setup_measured_s", median(setupSecs), "s", len(setupSecs), fmtList(setupSecs)))
	o.note(fmt.Sprintf("%-28s %16.4f %-8s median of %d segments", "ref_us", median(win.refUS), "us", len(win.refUS)))
	o.note(fmt.Sprintf("%-28s %16.4f %-8s median of %d segments; %d verified calls in %.3f s measured", "calls_per_s", median(win.rates), "1/s", len(win.rates), verified, win.elapsed.Seconds()))
	o.note(fmt.Sprintf("%-28s %16.4f %-8s n=%d", "call_p50_us", lat.P50, "us", lat.N))
	o.note(fmt.Sprintf("%-28s %16.4f %-8s n=%d, median p99 of %d blocks of >= %d calls, >= %d beyond each", "call_p99_us", lat.P99, "us", lat.N, lat.Blocks, blockCalls, beyond(blockCalls, 0.99)))
	o.note(fmt.Sprintf("%-28s %16.4f %-8s VmHWM", "peak_rss_mb", rss, "MB"))
	o.note(fmt.Sprintf("%-28s %16.4f %-8s %d of %d attempted (warm-up included)", "failed_frac", float64(o.Failed)/float64(o.Attempted), "", o.Failed, o.Attempted))
	if w.Loop == "open" {
		o.note(fmt.Sprintf("%-28s %16.4f %-8s %d of %d issued over one pacing interval late, offered %g rps", "late_frac", float64(win.late)/n, "", win.late, win.attempted, w.OfferedRPS))
	}
	return o, nil
}

// runTraced measures the per-layer metrics: an untraced and a traced
// window of the workload, whose p50 difference is the tracing overhead,
// then the layer decomposition on the following inputs.
func runTraced(ctx context.Context, w workload, seed int64, d time.Duration, path string) (*output, error) {
	e, err := newEnv()
	if err != nil {
		return nil, err
	}
	defer e.close()
	warm, next, err := runWindow(ctx, e, w, seed, 0, 1, 1, nil)
	if err != nil {
		return nil, err
	}
	// Untraced and traced segments alternate, so that drift over the run
	// does not show up as tracing overhead.
	half := d / 2
	rec := newRecorder()
	plain, traced := &window{}, &window{}
	for k := 0; !plain.enough(half, blockCalls) || !traced.enough(half, blockCalls); k++ {
		if k > 0 && k%envSegments == 0 {
			if err := e.renew(ctx); err != nil {
				return nil, err
			}
		}
		acc, r := plain, (*recorder)(nil)
		if k%2 == 1 {
			acc, r = traced, rec
		}
		n, err := runSegment(ctx, e, w, seed, next, r, acc)
		if err != nil {
			return nil, err
		}
		next += n
	}
	dec, err := newDecomposer(e, w, seed, rec)
	if err != nil {
		return nil, err
	}
	defer dec.close()
	cm0, sm0 := e.cl.Metrics(), e.srv.Metrics()
	start := time.Now()
	for g := 0; time.Since(start) < half || g < 8; g++ {
		dec.countAllocs = g%4 == 3
		if err := dec.group(ctx, next); err != nil {
			return nil, fmt.Errorf("decomposition: %w", err)
		}
		next += groupSize
	}
	cm1, sm1 := e.cl.Metrics(), e.srv.Metrics()
	if err := rec.write(path); err != nil {
		return nil, err
	}

	plainLat, err := summarize(plain.latUS)
	if err != nil {
		return nil, fmt.Errorf("untraced latency: %w", err)
	}
	tracedLat, err := summarize(traced.latUS)
	if err != nil {
		return nil, fmt.Errorf("traced latency: %w", err)
	}
	o := newOutput(w, seed, d, 1)
	o.account(warm, plain, traced)
	o.Attempted += dec.attempted
	o.Failed += dec.failed
	if o.firstErr == nil {
		o.firstErr = dec.firstErr
	}
	o.Correct = o.Failed == 0

	s := dec.s
	for _, m := range perLayer {
		if vs, ok := s[m.name]; ok {
			o.set(perLayer, m.name, median(vs), fmt.Sprintf("median of %d", len(vs)))
		}
	}
	for _, m := range []string{"graph.walk_us", "graph.walk_allocs", "graph.objects"} {
		if _, ok := s[m]; !ok {
			return nil, fmt.Errorf("workload has no restorable argument to walk for %s", m)
		}
	}
	sum := func(f func(w *window) int64, decomposed int64) float64 {
		return float64(f(plain) + f(traced) + decomposed)
	}
	o.set(perLayer, "rmi.attempts", sum(func(w *window) int64 { return w.attempts }, cm1.Attempts-cm0.Attempts), "Client.Metrics deltas")
	o.set(perLayer, "rmi.retries", sum(func(w *window) int64 { return w.retries }, cm1.Retries-cm0.Retries), "Client.Metrics deltas")
	o.set(perLayer, "rmi.errors", sum(func(w *window) int64 { return w.callErrors }, cm1.CallErrors-cm0.CallErrors), "Client.Metrics deltas")
	o.set(perLayer, "rmi.server_rejected", sum(func(w *window) int64 { return w.rejected }, sm1.CallsRejected-sm0.CallsRejected), "Server.Metrics deltas")
	late, err := summarize(plain.latenessUS)
	if err != nil {
		return nil, fmt.Errorf("lateness: %w", err)
	}
	o.set(perLayer, "load.lateness_p50_us", late.P50, fmt.Sprintf("n=%d, untraced window", late.N))
	o.set(perLayer, "load.lateness_p99_us", late.P99, fmt.Sprintf("n=%d, untraced window", late.N))
	n := float64(plain.attempted)
	o.set(perLayer, "gc.cycles_per_kcall", 1000*float64(plain.gcCycles)/n, "untraced window")
	o.set(perLayer, "gc.pause_us_per_call", float64(plain.gcPauseNs)/1000/n, "untraced window")

	call := median(s["rmi.call_us"])
	var coreUS float64
	for _, m := range []string{"core.request_encode_us", "core.server_decode_us", "core.prepare_us", "core.response_encode_us", "core.apply_us"} {
		coreUS += median(s[m])
	}
	transportUS := median(s["transport.round_trip_us"])
	if w.InFlight > 1 {
		transportUS = median(s["transport.pipelined_us"])
	}
	o.set(perLayer, "split.graph_core_pct", 100*coreUS/call, "core step medians over rmi.call_us")
	o.set(perLayer, "split.transport_rmi_pct", 100*(transportUS+median(s["rmi.self_us"]))/call, "transport plus rmi.self_us over rmi.call_us")
	o.set(perLayer, "trace.overhead_us", tracedLat.P50-plainLat.P50, fmt.Sprintf("traced p50 %.1f us (n=%d) minus untraced p50 %.1f us (n=%d)", tracedLat.P50, tracedLat.N, plainLat.P50, plainLat.N))
	o.note(fmt.Sprintf("spans: %d written to %s", len(rec.spans), path))
	return o, nil
}

// setupProbe times one cold start in this process: registration, server
// and client construction, the dial and the first verified call of each
// kind the workload issues, plan and kernel compilation included. The
// inputs are built before the clock starts.
func setupProbe(ctx context.Context, w workload, seed int64) (time.Duration, error) {
	idx := []int{0}
	if w.Loop == "open" {
		idx = []int{0, 3} // one copy.OneWay and one macro.Apply
	}
	var ins []input
	for _, i := range idx {
		in, err := inputFor(w, seed, i)
		if err != nil {
			return 0, err
		}
		ins = append(ins, in)
	}
	start := time.Now()
	e, err := newEnv()
	if err != nil {
		return 0, err
	}
	defer e.close()
	for _, in := range ins {
		var rets []any
		if w.InFlight > 1 {
			p, err := e.stub(in).CallAsync(ctx, in.method, in.args()...)
			if err != nil {
				return 0, err
			}
			if rets, err = p.Wait(ctx); err != nil {
				return 0, err
			}
		} else if rets, err = e.stub(in).Call(ctx, in.method, in.args()...); err != nil {
			return 0, err
		}
		if err := in.verify(rets); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// measureSetup runs setupProbes cold starts, each in a fresh process so
// that type registration and plan compilation are paid every time. It
// returns each one's seconds and its reference time in microseconds,
// timed in the same process right after it.
func measureSetup(ctx context.Context, w workload, seed int64) (secs, refUS []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	for i := 0; i < setupProbes; i++ {
		pctx, cancel := context.WithTimeout(ctx, time.Minute)
		cmd := exec.CommandContext(pctx, exe, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("setup probe %d: %w", i, err)
		}
		var s, r float64
		if _, err := fmt.Sscan(string(b), &s, &r); err != nil {
			return nil, nil, fmt.Errorf("setup probe %d printed %q: %w", i, b, err)
		}
		secs, refUS = append(secs, s), append(refUS, r)
	}
	return secs, refUS, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func fmtList(vs []float64) string {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = strconv.FormatFloat(v, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
