package main

import (
	"sync"
	"time"
)

// The sandbox is two vCPUs of a shared host. For seconds to minutes at a
// time its neighbours slow it — sometimes every instruction, sometimes only
// what misses the cache — and every timing of the benchmark rises with it,
// daemon CPU time included: ten runs of unchanged code spread by a tenth to
// a quarter of their median, longer runs no less than short ones. A
// speedometer measures that from inside the run. Every speedEvery it times a
// fixed kernel that shares no code with the repository: a compute phase and
// a memory phase of equal length on the quiet sandbox. A kernel of one kind
// alone followed the program's timings in some hours and over- or
// under-corrected them in others, when the neighbours were busy in the other
// kind; the two in equal parts followed them in every series recorded
// (README.md has the series). The median kernel time
// over a window, divided by its time on the quiet sandbox, is the window's
// speed factor, and every end-to-end timing of the window is divided by it
// (a closed loop's throughput multiplied): the figure reads as on the quiet
// sandbox. The factor is an interference signal independent of the
// latencies it corrects; no sample is selected or discarded by its own
// value.
type speedometer struct {
	small []uint32 // the compute phase's buffer
	buf   []uint64 // the memory phase's buffer
	mu    sync.Mutex
	at    []time.Time
	took  []time.Duration
	stop  chan struct{}
	done  chan struct{}
}

// startSpeedometer begins timing the kernel on a goroutine of its own: 0.7
// ms of work every 40 ms, a fiftieth of one core.
func startSpeedometer() *speedometer {
	s := &speedometer{small: make([]uint32, speedSmallWords), buf: make([]uint64, speedBufWords), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			t0 := time.Now()
			s.compute()
			s.walk()
			took := time.Since(t0)
			s.mu.Lock()
			s.at, s.took = append(s.at, t0), append(s.took, took)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// compute makes speedPasses passes of dependent integer arithmetic over a
// 16 KiB buffer that stays in the first-level cache: the cost a busy sibling
// thread of the same core raises.
func (s *speedometer) compute() {
	x := s.small[0] | 1
	for r := 0; r < speedPasses; r++ {
		for i := range s.small {
			x = x*1664525 + s.small[i] + uint32(i)
			s.small[i] = x >> 3
		}
	}
	s.small[0] = x
}

// walk visits speedSteps pseudo-random words of an 8 MiB buffer, reading
// and writing each: cache misses and dependent loads, the costs a neighbour
// busy in the shared cache and memory raises. The walk continues where the
// last one ended.
func (s *speedometer) walk() {
	n := uint64(len(s.buf))
	idx, sum := s.buf[0]%n, uint64(0)
	for i := 0; i < speedSteps; i++ {
		idx = (idx*6364136223846793005 + 1442695040888963407) % n
		sum += s.buf[idx]
		s.buf[idx] = sum + uint64(i)
	}
	s.buf[0] = idx
}

// halt stops the kernel goroutine and waits for it.
func (s *speedometer) halt() {
	close(s.stop)
	<-s.done
}

// factor is the median time of the kernels begun in [from, to) over
// speedReference: 1 on the quiet sandbox, 1.2 when the same work takes a
// fifth longer. With fewer than three kernels in the interval it is 1.
func (s *speedometer) factor(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in []float64
	for i, t := range s.at {
		if !t.Before(from) && t.Before(to) {
			in = append(in, float64(s.took[i]))
		}
	}
	if len(in) < 3 {
		return 1
	}
	return median(in) / float64(speedReference)
}
