package main

import (
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host gauge. This sandbox is a few cores of a shared host, and the
// same instructions run up to a third slower on it for minutes at a
// time when its neighbours are busy: CPU time inflates with the wall
// time and `steal` stays flat, so what is shared is the memory system,
// not a run queue. No statistic over one run's samples removes that — a
// whole run, and then a whole set of runs, falls into a slow spell — so
// the zoo workloads, whose work is the same to the instruction on every
// pass, measure the host alongside the program and report their times
// at the host's nominal speed: the time measured, times what a unit of
// fixed work takes nominally, over what it took on the same cores
// between the calls being timed.
//
// A gauge unit is a fixed number of reads at pseudo-random places of a
// table that does not fit a core's own cache, on every core
// at once as the optimizer's own parallel phases are. Of the kinds of
// fixed work tried (README.md, "Host gauge") this one follows the
// optimizer's slow spells closest; an arithmetic chain that stays in
// registers hardly notices them. The unit touches no heap and none of
// the repository's code, so a change to the program cannot move it.

const (
	// gaugeNominalMS is what one unit takes on this sandbox in a calm
	// hour (in the busiest seen, 24 ms). Calibrated once, on the commit
	// that added the gauge, and not again: it only fixes the scale.
	gaugeNominalMS = 15.0
	gaugeSteps     = 2_600_000
)

var (
	gaugeTable = newGaugeTable(1 << 20) // 8 MB
	gaugeSink  [64]uint64
)

// newGaugeTable maps the table outside Go's heap: inside it, its 8 MB
// would count as live heap, the collector would run a third as often
// during the optimizer's calls, and they would read a fifth faster than
// they are.
func newGaugeTable(n int) []uint64 {
	mem, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("gauge table: " + err.Error())
	}
	t := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), n)
	for i := range t {
		t[i] = uint64(i) * 2654435761
	}
	return t
}

// gaugeWalk reads n entries of the table, each at a place the previous
// xorshift step decides, and returns their sum.
func gaugeWalk(n int) uint64 {
	x := uint64(88172645463325252)
	mask := uint64(len(gaugeTable) - 1)
	var s uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += gaugeTable[x&mask]
	}
	return s
}

// gaugeUnit runs one unit and returns how long it took, in ms.
func gaugeUnit() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nproc() && c < len(gaugeSink); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gaugeSink[c] += gaugeWalk(gaugeSteps)
		}()
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// hostFactor turns gauge readings taken around some timed work into the
// factor that brings its time to the host's nominal speed.
func hostFactor(unitMS []float64) float64 {
	return gaugeNominalMS / (sum(unitMS) / float64(len(unitMS)))
}
