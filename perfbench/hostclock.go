package main

import (
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"
)

// The shared hosts this benchmark runs on change speed in episodes: the
// same work can take 15–40% longer from one minute to the next, with
// CPU time tracking wall time and no steal. No median over units inside
// one run removes an episode that outlasts the run. So every host-time
// sample is normalized by a reference run right before and right after
// the segment that produced it: the sample is multiplied by the
// reference's nominal time over the mean of those two reference times.
// Units are cut into segments of tens of milliseconds (one simulation,
// one experiment, a hundred requests), since the reference tracks the
// host best right next to the work. Host times then read as seconds on
// a host that runs the reference in its nominal time. The references
// are fixed code in this directory, so they take the same time on both
// commits of a comparison, and a change to the repository moves the
// normalized number exactly as it moves the raw one.

// refNominal is the kernel's time on the nominal host.
const refNominal = 4 * time.Millisecond

// refPerm is the pointer-chasing ring the kernel walks (1 MiB, past
// the first-level caches, as the simulator's tables are).
var refPerm = func() []uint32 {
	p := rand.New(rand.NewSource(1)).Perm(1 << 18)
	out := make([]uint32, len(p))
	for i, v := range p {
		out[i] = uint32(v)
	}
	return out
}()

// refKernel mixes what the simulator and the service spend time on:
// dependent loads over a megabyte, branches, map updates, a sort and
// small allocations.
func refKernel() uint64 {
	var acc uint64
	j := uint32(0)
	for i := 0; i < 150_000; i++ {
		j = refPerm[j]
		if j&3 == 1 {
			acc += uint64(j)
		} else {
			acc ^= uint64(j) << 1
		}
	}
	m := make(map[uint64]uint64, 64)
	for i := uint64(0); i < 20_000; i++ {
		m[(i*2654435761)&4095] += i
	}
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = float64((uint64(i) * 2654435761) % 10007)
	}
	sort.Float64s(xs)
	keep := make([][]byte, 0, 2000)
	for i := 0; i < 2000; i++ {
		keep = append(keep, make([]byte, 64+i%128))
	}
	return acc + uint64(len(m)) + uint64(xs[7]) + uint64(len(keep[1999]))
}

var refSink uint64

// hostClock measures the host's current speed with a reference: the
// kernel, run on as many goroutines as the workload keeps busy, or a
// series of loopback round trips.
type hostClock struct {
	par     int
	nominal float64   // the reference time on the nominal host, s
	echo    *echoPeer // when set, the reference is echoPeer.roundTrips
	last    float64   // the latest reference time, s
	refs    []float64 // every reference time, s
}

func newHostClock(par int) *hostClock {
	h := &hostClock{par: max(par, 1), nominal: refNominal.Seconds()}
	h.last = h.measure()
	return h
}

// echoNominal is the time of echoTrips loopback round trips on the
// nominal host.
const (
	echoTrips   = 100
	echoNominal = 1500 * time.Microsecond
)

// newEchoClock returns a clock whose reference is echoTrips round trips
// of a small message to a loopback echo peer. A request the service
// answers from its store spends its time the same way: syscalls and
// goroutine wake-ups across threads more than computation, which the
// kernel does not track. Close it to stop the peer.
func newEchoClock() (*hostClock, error) {
	e, err := newEchoPeer()
	if err != nil {
		return nil, err
	}
	h := &hostClock{par: 1, nominal: echoNominal.Seconds(), echo: e}
	h.last = h.measure()
	return h, nil
}

func (h *hostClock) close() error { return h.echo.close() }

func (h *hostClock) measure() float64 {
	if h.echo != nil {
		d := h.echo.roundTrips(echoTrips)
		h.refs = append(h.refs, d)
		return d
	}
	t0 := time.Now()
	sums := make([]uint64, h.par)
	// One kernel runs on the calling goroutine, so a single-threaded
	// workload and its reference share a thread.
	var wg sync.WaitGroup
	for g := 1; g < h.par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums[g] = refKernel()
		}(g)
	}
	sums[0] = refKernel()
	wg.Wait()
	d := time.Since(t0).Seconds()
	for _, s := range sums {
		refSink += s
	}
	h.refs = append(h.refs, d)
	return d
}

// factor measures the reference again and returns the factor that
// normalizes the host times produced since the previous measurement:
// refNominal over the mean of the two reference times.
func (h *hostClock) factor() float64 {
	before := h.last
	h.last = h.measure()
	return h.nominal / ((before + h.last) / 2)
}

// echoPeer is a loopback TCP connection to a goroutine that echoes
// what it reads.
type echoPeer struct {
	ln   net.Listener
	conn net.Conn
	done chan struct{}
	buf  [64]byte
}

func newEchoPeer() (*echoPeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoPeer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the client closes
	}()
	if e.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-e.done
		return nil, err
	}
	return e, nil
}

// roundTrips sends and reads back a small message n times and returns
// the time taken in seconds; a broken connection reads as +Inf, which
// zeroes the segments it normalizes rather than hiding the fault.
func (e *echoPeer) roundTrips(n int) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := e.conn.Write(e.buf[:]); err != nil {
			return math.Inf(1)
		}
		if _, err := io.ReadFull(e.conn, e.buf[:]); err != nil {
			return math.Inf(1)
		}
	}
	return time.Since(t0).Seconds()
}

// close stops the peer and waits for its goroutine to return.
func (e *echoPeer) close() error {
	err := e.conn.Close()
	e.ln.Close()
	<-e.done
	return err
}
