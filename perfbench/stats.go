package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile for
// it to be reported at all.
const minTail = 10

// rank returns the 1-based nearest-rank position of the q-quantile among n
// samples: the smallest rank r with r >= q*n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond returns how many of n samples lie after the q-quantile's rank.
func beyond(n int, q float64) int { return n - rank(n, q) }

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), q)-1]
}

// median returns the nearest-rank median of samples, without modifying
// them; NaN for none.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// blockCalls is the size of the blocks a tail percentile is taken over:
// the fewest samples that leave minTail beyond p99.
const blockCalls = 100 * minTail

// latency is a timing reported as a median and a tail percentile, with the
// sample count beside them.
type latency struct {
	N, Blocks int
	P50, P99  float64
}

// summarize reports the median of samples and their p99. The p99 is the
// median of the p99s of consecutive blocks of blockCalls samples (the
// remainder joins the last block), so that one burst of host noise moves
// one block rather than the run. It fails when a block would have fewer
// than minTail samples beyond its p99, i.e. below blockCalls samples.
func summarize(samples []float64) (latency, error) {
	n := len(samples)
	if n < blockCalls || beyond(blockCalls, 0.99) < minTail {
		return latency{N: n}, fmt.Errorf("%d samples leave fewer than %d beyond p99", n, minTail)
	}
	blocks := n / blockCalls
	p99s := make([]float64, blocks)
	for b := range p99s {
		end := (b + 1) * blockCalls
		if b == blocks-1 {
			end = n
		}
		blk := append([]float64(nil), samples[b*blockCalls:end]...)
		sort.Float64s(blk)
		p99s[b] = quantile(blk, 0.99)
	}
	return latency{N: n, Blocks: blocks, P50: median(samples), P99: median(p99s)}, nil
}
