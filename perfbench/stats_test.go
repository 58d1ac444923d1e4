package main

import "testing"

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := beyond(100, 0.99); got != 1 {
		t.Errorf("beyond(100, 0.99) = %d, want 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3, 1, 2) = %g, want 2", got)
	}
}

func TestSummarizeNeedsTenSamplesBeyondP99(t *testing.T) {
	if _, err := summarize(seq(999)); err == nil {
		t.Error("999 samples leave 9 beyond p99 and must be refused")
	}
	lat, err := summarize(seq(1000))
	if err != nil {
		t.Fatal(err)
	}
	if lat.N != 1000 || lat.Blocks != 1 || lat.P50 != 500 || lat.P99 != 990 {
		t.Errorf("summarize(1..1000) = %+v, want N 1000, 1 block, p50 500, p99 990", lat)
	}
	beyondP99 := 0
	for _, v := range seq(1000) {
		if v > lat.P99 {
			beyondP99++
		}
	}
	if beyondP99 != minTail {
		t.Errorf("%d samples beyond the reported p99, want %d", beyondP99, minTail)
	}
}

func TestSummarizeTakesMedianOfBlockP99s(t *testing.T) {
	// Three blocks of 1..1000; a burst in the middle block must not move
	// the reported p99, and the remainder joins the last block.
	var s []float64
	for b := 0; b < 3; b++ {
		blk := seq(blockCalls)
		if b == 1 {
			for i := 900; i < blockCalls; i++ {
				blk[i] = 1e6
			}
		}
		s = append(s, blk...)
	}
	s = append(s, 5e6, 5e6)
	lat, err := summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Blocks != 3 || lat.N != 3002 {
		t.Errorf("got %d blocks of %d samples, want 3 of 3002", lat.Blocks, lat.N)
	}
	// Block p99s: 990, 1e6 and, for the last block with two extra
	// samples, the 992nd of 1002 values, 992.
	if lat.P99 != 992 {
		t.Errorf("p99 = %g, want 992", lat.P99)
	}
}
