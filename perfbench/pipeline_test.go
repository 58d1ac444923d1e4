package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"nrmi/internal/graph"
)

func testWorkload(t *testing.T, name string) workload {
	t.Helper()
	wc, err := loadWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return workload{name: name, workloadConfig: wc}
}

// TestLayerBytesEqualClientMetrics takes calls of every kind through the
// layers and through Stub.Call on identical inputs: the request and reply
// bytes the layers produce must be exactly what Client.Metrics counts for
// the rmi call, and both must restore the same graph.
func TestLayerBytesEqualClientMetrics(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{"tree-restore-1k", "mixed-open-loop"} {
		w := testWorkload(t, name)
		e, err := newEnv()
		if err != nil {
			t.Fatal(err)
		}
		d, err := newDecomposer(e, w, 7, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ { // calls 0-2 of the mix are by copy, 3 restores
			viaLayers, err := inputFor(w, 7, i)
			if err != nil {
				t.Fatal(err)
			}
			viaRMI, err := inputFor(w, 7, i)
			if err != nil {
				t.Fatal(err)
			}
			pc, err := d.pipeline(ctx, viaLayers, int64(i))
			if err != nil {
				t.Fatalf("%s call %d through the layers: %v", name, i, err)
			}
			m0 := e.cl.Metrics()
			rets, err := e.stub(viaRMI).Call(ctx, viaRMI.method, viaRMI.args()...)
			if err != nil {
				t.Fatalf("%s call %d through Stub.Call: %v", name, i, err)
			}
			m1 := e.cl.Metrics()
			if err := viaRMI.verify(rets); err != nil {
				t.Errorf("%s call %d: %v", name, i, err)
			}
			got := int64(len(pc.req) + pc.replyBytes)
			want := m1.BytesSent + m1.BytesReceived - m0.BytesSent - m0.BytesReceived
			if got != want {
				t.Errorf("%s call %d: layers moved %d bytes, Client.Metrics counted %d", name, i, got, want)
			}
			eq, err := graph.Equal(graph.AccessExported, viaLayers.state(), viaRMI.state())
			if err != nil || !eq {
				t.Errorf("%s call %d: the layers and Stub.Call restored different graphs (%v)", name, i, err)
			}
		}
		d.close()
		e.close()
	}
}

// TestGroupDecomposesPipelinedCalls runs one decomposition group on the
// pipelined workload in both modes and checks it records every layer.
func TestGroupDecomposesPipelinedCalls(t *testing.T) {
	ctx := context.Background()
	w := testWorkload(t, "pipelined-small")
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	d, err := newDecomposer(e, w, 3, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.group(ctx, 0); err != nil {
		t.Fatal(err)
	}
	d.countAllocs = true
	if err := d.group(ctx, groupSize); err != nil {
		t.Fatal(err)
	}
	if d.failed != 0 || d.attempted != 2*groupSize {
		t.Fatalf("%d of %d calls failed: %v", d.failed, d.attempted, d.firstErr)
	}
	for _, m := range perLayer {
		switch m.name {
		case "rmi.attempts", "rmi.retries", "rmi.errors", "rmi.server_rejected",
			"load.lateness_p50_us", "load.lateness_p99_us", "gc.cycles_per_kcall",
			"gc.pause_us_per_call", "split.graph_core_pct", "split.transport_rmi_pct",
			"trace.overhead_us":
			continue // measured from the workload windows, not the groups
		}
		if len(d.s[m.name]) == 0 {
			t.Errorf("no samples of %s", m.name)
		}
	}
}

// TestBenchmarkJSONDeclaresPrintedMetrics keeps BENCHMARK.json and the
// program's metric and workload lists the same.
func TestBenchmarkJSONDeclaresPrintedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)

	var cfg struct {
		benchConfig
		Predictions []struct{ Metric string } `json:"predictions"`
	}
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		t.Fatal(err)
	}
	predicted := map[string]bool{}
	for _, p := range cfg.Predictions {
		predicted[p.Metric] = true
	}
	for _, m := range perLayer {
		if !predicted[m.name] {
			t.Errorf("workloads.json has no prediction for %s", m.name)
		}
	}
	var names, configured []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	for n := range cfg.Workloads {
		configured = append(configured, n)
	}
	sort.Strings(names)
	sort.Strings(configured)
	if len(names) != len(configured) {
		t.Fatalf("BENCHMARK.json workloads %v, workloads.json %v", names, configured)
	}
	for i := range names {
		if names[i] != configured[i] {
			t.Errorf("BENCHMARK.json workloads %v, workloads.json %v", names, configured)
		}
	}
}
