package main

import "time"

// On shared VMs the host's speed swings by 15-25% over minutes as other
// tenants load its memory system: on a 2-vCPU VM a full pass over the sim
// matrix took 10.3 s and 13.7 s a minute apart, with identical output. No
// estimator inside a 30-second run removes a swing that lasts longer than
// the run, so timed intervals are bracketed by runs of a calibration kernel
// and reported at reference speed: scaled by calibRef over the kernel's
// time. The kernel is a random walk over a table far larger than the
// host's caches, so its speed follows the host's memory latency; across
// passes the ratio of matrix time to kernel time moved half as much as the
// raw time or less. The kernel uses no repository code, so a change to the
// program cannot change it.

// calibTable is the kernel's 8 MiB working set.
var calibTable = make([]uint32, 1<<21)

var calibSink uint32

// calibIters sizes the kernel to about 1.7 ms on the reference machine.
const calibIters = 1 << 17

// calibRef is the kernel's time on the reference machine, a 2-vCPU VM;
// reference-speed times are what an interval would have taken there.
const calibRef = 1700 * time.Microsecond

// calibrate runs the kernel once and returns its wall time.
func calibrate() time.Duration {
	start := time.Now()
	x, acc := uint32(12345), uint32(0)
	for i := 0; i < calibIters; i++ {
		x = x*1103515245 + 12345
		idx := (x >> 5) & uint32(len(calibTable)-1)
		v := calibTable[idx]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v << 1
		}
		calibTable[idx] = v + acc
	}
	calibSink += acc
	return time.Since(start)
}

// atRefSpeed converts an interval measured right after a kernel run that
// took k into reference-speed time.
func atRefSpeed(d, k time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibRef) / float64(k))
}
