package main

import "time"

// A shared host's speed drifts as other tenants load its memory system.
// On a 2-CPU Xeon VM, identical space_cold CLI runs took a median 0.30 s
// in one 25-second window and 0.44 s in another, and a run's median
// moves with the drift. So the benchmark times a fixed probe between
// samples and reports every time at the host speed of a reference probe
// time. Over six minutes of identical runs on that VM, the 25-second
// window medians of raw wall time spread 0.245 (interquartile distance
// over median); scaled by the probe they spread 0.041.

// probeRef is the reference probe time: a time metric reads what it
// would on a host where probe takes probeRef.
const probeRef = 10 * time.Millisecond

// probe times a fixed piece of work that shares nothing with the code
// under test: a 4-way FIFO cache of 16384 sets driven by 2^20 accesses
// from a fixed pseudo-random stream, three quarters sequential and one
// quarter scattered over 64 MiB. Like the DEW passes it is bound by
// dependent loads from a table of half a MiB, so it slows when they do.
func probe() time.Duration {
	const (
		sets = 1 << 14
		ways = 4
		n    = 1 << 20
	)
	tags := make([]uint64, sets*ways)
	next := make([]uint8, sets)
	x, seq := uint64(88172645463325252), uint64(0)
	misses := 0
	start := time.Now()
	for range n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var addr uint64
		if x&3 != 0 {
			seq += 4
			addr = seq
		} else {
			addr = (x >> 8) & (1<<26 - 1)
		}
		blk := addr >> 5
		set := int(blk & (sets - 1))
		tag := blk>>14 + 1 // 0 marks an empty way
		row := tags[set*ways : set*ways+ways]
		hit := false
		for _, t := range row {
			if t == tag {
				hit = true
				break
			}
		}
		if !hit {
			misses++
			row[next[set]] = tag
			next[set] = (next[set] + 1) % ways
		}
	}
	d := time.Since(start)
	if misses == 0 { // keeps the loop from being optimized away
		panic("perfbench: probe made no misses")
	}
	return d
}

// hostScale is the factor that takes a time measured between two probes
// to the reference host speed.
func hostScale(before, after time.Duration) float64 {
	return probeRef.Seconds() / ((before + after).Seconds() / 2)
}
