package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed region recorded by the benchmark around a call into a
// layer. Start and End are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Call   int64  `json:"call"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
// It is safe for concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent int, call int64) int {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Call: call, Name: name, Start: start})
	return id
}

// finish closes span id and returns its duration.
func (r *recorder) finish(id int) time.Duration {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end
	return time.Duration(r.spans[id].dur())
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once, and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered int64
		curStart, curEnd := int64(0), int64(-1)
		flush := func() {
			if curEnd > curStart {
				covered += curEnd - curStart
			}
		}
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				flush()
				curStart, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		flush()
		out[i] = s.dur() - covered
	}
	return out
}

// write stores the spans as JSON lines, with each span's self time.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
