package main

import "time"

// The machines this benchmark runs on share their CPUs with other work, and
// their speed drifts: a fixed CPU loop timed once a minute on the reference
// machine moved by 7%, and one workload at one seed by 13% in wall time.
// So the run times a fixed loop of its own after every block of measured
// steps and after each timed set-up, and scales that block's or set-up's
// wall time by how fast the loop ran, relative to the reference machine.
// The loop uses no repository code and allocates nothing, so a change to
// the program under test can reach it only through the caches they share.

// calEvery is how many measured steps pass between two calibrations.
const calEvery = 20

// calRefMS is the median time of one calibration loop on the reference
// machine (2-core x86-64 container, Go 1.24, GOMAXPROCS 1).
const calRefMS = 0.25

// calTable is the loop's private working set: 256 KB, random access.
var calTable [1 << 15]uint64

// calLoop runs the loop once and returns its wall time in ms.
func calLoop() float64 {
	w := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 100000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (uint64(len(calTable)) - 1)
		acc += calTable[j]
		calTable[j] = acc ^ x
	}
	calTable[0] += acc
	return float64(time.Since(w)) / 1e6
}

// calibrate is one calibration: the median of three loops. The first loop
// refills the table into the cache after the steps evicted it, and one
// interrupted loop does not skew the block it scales, so the median tracks
// the machine's speed rather than the program's memory footprint.
func calibrate() float64 {
	a, b, c := calLoop(), calLoop(), calLoop()
	return max(min(a, b), min(max(a, b), c))
}

// atReference converts a wall time measured while the calibration loop
// took cal ms to the reference machine's speed.
func atReference(wall, cal float64) float64 { return wall * calRefMS / cal }

// scaled converts per-step wall times to the reference machine's speed:
// each block of calEvery steps by the calibration right after it. Steps
// after the last calibration use the last one; a run too short for any
// calibration is unscaled.
func (r *run) scaled(steps []float64) []float64 {
	out := make([]float64, len(steps))
	for i, x := range steps {
		out[i] = x
		if len(r.cal) > 0 {
			out[i] = atReference(x, r.cal[min(i/calEvery, len(r.cal)-1)])
		}
	}
	return out
}

// slowdown is how much slower than the reference machine the run's median
// calibration ran; the report carries it to show how much scaling did.
func (r *run) slowdown() float64 {
	if len(r.cal) == 0 {
		return 1
	}
	return quantile(r.cal, 0.5) / calRefMS
}
