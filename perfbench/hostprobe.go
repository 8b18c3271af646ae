package main

import (
	"fmt"
	"time"
)

// probeHost times two fixed pieces of work, 15 times each, that do not
// touch the program: a pure CPU loop and a sweep over 64 MiB of memory. The
// spread of their times is the host's own noise, the floor under every
// bound the benchmark can hold.
func probeHost() {
	const reps = 15
	buf := make([]int64, 64<<20/8)
	for _, probe := range []struct {
		name string
		run  func() int64
	}{
		{"cpu loop (5e7 multiply-adds)", func() int64 {
			x := int64(1)
			for i := int64(0); i < 50_000_000; i++ {
				x = x*6364136223846793005 + i
			}
			return x
		}},
		{"64 MiB memory sweep (write + read)", func() int64 {
			for i := range buf {
				buf[i] = int64(i)
			}
			var s int64
			for _, v := range buf {
				s += v
			}
			return s
		}},
	} {
		times := make([]float64, reps)
		var sink int64
		for i := range times {
			t0 := time.Now()
			sink += probe.run()
			times[i] = time.Since(t0).Seconds()
		}
		q1, q2, q3 := quartiles(times)
		lo, hi := times[0], times[0]
		for _, t := range times {
			lo, hi = min(lo, t), max(hi, t)
		}
		fmt.Printf("%-36s min %.4f s  q1 %.4f  median %.4f  q3 %.4f  max %.4f  spread %.3f  (%d)\n",
			probe.name, lo, q1, q2, q3, hi, (q3-q1)/q2, sink&1)
	}
}
