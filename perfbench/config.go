package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// workloadsJSON describes every workload: sizes, loop shape, offered rate
// and the reason it exists, plus the prediction table of which end-to-end
// metric each per-layer metric should move. The program takes its sizes
// from here, so the description cannot drift from what runs.
//
//go:embed workloads.json
var workloadsJSON []byte

// mixEntry is one kind of call in an open-loop mix; the share of each
// kind is fixed in isMacro.
type mixEntry struct {
	TreeNodes      int `json:"tree_nodes"`
	MacroCustomers int `json:"macro_customers"`
	MacroOps       int `json:"macro_ops"`
}

// workloadConfig is the part of a workload's entry in workloads.json that
// the program reads.
type workloadConfig struct {
	Why            string     `json:"why"`
	Loop           string     `json:"loop"`
	InFlight       int        `json:"in_flight"`
	TreeNodes      int        `json:"tree_nodes"`
	SegmentCalls   int        `json:"segment_calls"`
	OfferedRPS     float64    `json:"offered_rps"`
	PacingWorkers  int        `json:"pacing_workers"`
	SegmentSeconds float64    `json:"segment_seconds"`
	Mix            []mixEntry `json:"mix"`
}

type benchConfig struct {
	Workloads map[string]workloadConfig `json:"workloads"`
}

// loadWorkload returns the named workload's configuration.
func loadWorkload(name string) (workloadConfig, error) {
	var cfg benchConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return workloadConfig{}, fmt.Errorf("parsing workloads.json: %w", err)
	}
	wc, ok := cfg.Workloads[name]
	if !ok {
		return workloadConfig{}, fmt.Errorf("unknown workload %q", name)
	}
	return wc, nil
}
