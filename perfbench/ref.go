package main

import (
	"sort"
	"time"
)

// The reference work is a fixed computation, timed next to every segment
// and every cold start, that the timing metrics are expressed in units of.
// It links refSize preallocated nodes into a random tree and walks it with
// an identity map: the pointer chasing and hashing a copy-restore call is
// made of, in code the program under test does not contain, and without
// allocating. (Running it on every CPU at once was tried and tracked the
// host less well: its wall time depends on when both goroutines get a
// CPU.)
// A host that is busier or slower for a while stretches the calls and the
// reference alike, so their ratio moves far less from run to run than
// either does.
const refSize = 4096

type refNode struct {
	v    int
	l, r *refNode
}

// refSet is the reference work's preallocated working set.
type refSet struct {
	nodes []refNode
	seen  map[*refNode]int
	stack []*refNode
}

var refWork = &refSet{
	nodes: make([]refNode, refSize),
	seen:  make(map[*refNode]int, refSize),
	stack: make([]*refNode, 0, 64),
}

func (s *refSet) run() {
	x := uint64(88172645463325252)
	for i := range s.nodes {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := &s.nodes[i]
		n.v, n.l, n.r = int(x%100000), nil, nil
		if i > 0 {
			p := &s.nodes[x%uint64(i)]
			if p.l == nil {
				p.l = n
			} else if p.r == nil {
				p.r = n
			}
		}
	}
	clear(s.seen)
	for i := range s.nodes {
		s.stack = append(s.stack[:0], &s.nodes[i])
		for len(s.stack) > 0 {
			n := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			if _, ok := s.seen[n]; ok {
				continue
			}
			s.seen[n] = len(s.seen)
			if n.l != nil {
				s.stack = append(s.stack, n.l)
			}
			if n.r != nil {
				s.stack = append(s.stack, n.r)
			}
		}
	}
}

// referenceOnce times one run of the reference work.
func referenceOnce() time.Duration {
	start := time.Now()
	refWork.run()
	return time.Since(start)
}

// reference returns the median of five timings of the reference work.
// Only the benchmark's own goroutine calls it.
func reference() time.Duration {
	ts := make([]time.Duration, 5)
	for i := range ts {
		ts[i] = referenceOnce()
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	return ts[len(ts)/2]
}
