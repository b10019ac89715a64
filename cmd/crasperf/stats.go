package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative integers: values below 16
// are exact, larger ones fall into 16 buckets per power of two, so a bucket
// is at most 1/16 wide relative to its value. It keeps per-frame and
// per-call quantities (frame lateness, Get wall time) at a fixed size no
// matter how many samples a run takes.
type hist struct {
	counts []int64
	n      int64
}

const histSubBits = 4

func histBucket(v int64) int {
	if v < 1<<histSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>e) - 1<<histSubBits
}

// histLow returns the smallest value of bucket i; histLow(i+1) bounds it.
func histLow(i int) int64 {
	if i < 1<<histSubBits {
		return int64(i)
	}
	e := i>>histSubBits - 1
	return (int64(i&(1<<histSubBits-1)) + 1<<histSubBits) << e
}

func (h *hist) add(v int64) {
	b := histBucket(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the q-quantile, interpolating linearly inside the bucket
// that holds the rank. An empty histogram reads 0.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo, hi := float64(histLow(i)), float64(histLow(i+1))
			if i < 1<<histSubBits {
				return lo // exact bucket
			}
			return lo + (hi-lo)*(rank-float64(seen)+0.5)/float64(c)
		}
		seen += c
	}
	return float64(histLow(len(h.counts)))
}

// quantile returns the q-quantile of exact samples with linear
// interpolation between order statistics; no samples read 0.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// spread is the distance between the first and third quartiles as a share
// of the median, computed as Python's statistics.quantiles(values, n=4)
// does (the "exclusive" method).
func spread(values []float64) (median, iqrFrac float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	median = quantile(s, 0.5)
	if n < 2 || median == 0 { // quantiles need two values; a zero median has no share
		return median, 0
	}
	q := func(i int) float64 { // i-th of the three cut points
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return median, math.Abs(q(3)-q(1)) / math.Abs(median)
}

// digest accumulates a behaviour fingerprint: every per-viewer outcome and
// simulator counter the run produced, in a fixed order. Two runs with equal
// digests behaved identically, which is how a performance change shows it
// did not change what the server does.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(vs ...int64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
		d.h.Write(d.buf[:])
	}
}

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }
