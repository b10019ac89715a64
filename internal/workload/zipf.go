package workload

import "math"

// ZipfPicker draws movie ranks from a Zipf popularity law: rank r (from 0)
// is chosen with probability proportional to 1/(r+1)^alpha. Alpha 0 is the
// uniform law; video-on-demand catalogs are usually measured near 0.7-1.1,
// which is what makes interval caching pay — most viewers pile onto a few
// titles and arrive while those titles are already playing.
type ZipfPicker struct {
	cum []float64 // cumulative, normalized to cum[len-1] == 1
}

// NewZipfPicker builds the law over n ranks.
func NewZipfPicker(n int, alpha float64) *ZipfPicker {
	z := &ZipfPicker{cum: make([]float64, n)}
	sum := 0.0
	for r := 0; r < n; r++ {
		sum += 1 / math.Pow(float64(r+1), alpha)
		z.cum[r] = sum
	}
	for r := range z.cum {
		z.cum[r] /= sum
	}
	return z
}

// Pick maps a uniform draw in [0,1) to a rank.
func (z *ZipfPicker) Pick(u float64) int {
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
