package main

import "time"

// The shared host's core clock drifts by up to about 15% over minutes, as
// the machine's other tenants come and go, and every host time drifts
// with it: a fast and a slow stretch of the same code differ by more than
// a regression worth catching. The benchmark therefore reports every
// end-to-end host time at a fixed reference clock. It estimates the clock
// from a chain of dependent integer operations, which runs at one
// operation per core cycle however busy the core's other hardware thread
// is, timed before every job, set-up and layer measurement; the fastest
// chain of the run gives the clock. Over ten-second windows the ratio of
// a StrongARM crc run to the chain varied by ±1.4% where each alone
// varied by ±7%.

// chainIters is the length of the calibration chain in xorshift steps of
// six dependent operations each.
const (
	chainIters = 100_000
	chainOps   = 6 * chainIters
)

// refGHz is the reference clock end-to-end host times are scaled to.
const refGHz = 2.7

var (
	fastestChain time.Duration
	chainSink    uint64 = 1
)

// sampleClock times one calibration chain.
func sampleClock() {
	t0 := time.Now()
	y := chainSink | 1
	for i := 0; i < chainIters; i++ {
		y ^= y << 13
		y ^= y >> 7
		y ^= y << 17
	}
	d := time.Since(t0)
	chainSink = y
	if fastestChain == 0 || d < fastestChain {
		fastestChain = d
	}
}

// hostGHz is the clock the fastest calibration chain ran at.
func hostGHz() float64 { return chainOps / float64(fastestChain.Nanoseconds()) }

// toRefClock rescales the host-time metrics among defs, measured at ghz,
// to the reference clock: times by ghz/refGHz, rates by its inverse.
func toRefClock(m map[string]float64, defs []metricDef, ghz float64) {
	f := ghz / refGHz
	for _, d := range defs {
		switch d.Unit {
		case "s", "ms":
			m[d.Name] *= f
		case "Mcycles/s", "Minstr/s", "jobs/s":
			m[d.Name] /= f
		}
	}
}
