package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// A shared host changes speed by a fifth or more over minutes (other guests
// on the same cores and caches), in CPU time as well as in wall time, so
// raw CPU seconds of the same work differ that much from run to run. cpu_s
// is therefore scaled by a speed reference: a fixed kernel that belongs to
// the benchmark, so no change to the program can speed it up, timed at
// intervals through the run. cpu_s reads in seconds of a machine on which
// one reference sample takes refNominal.
//
// The kernel is random lookups in a hash table far larger than the CPU
// caches: of the kernels tried, its slowdowns tracked those of a synthesis
// most closely. It runs in a helper process of its own, so that its table
// stays out of the peak resident memory the benchmark reports.

// refNominal is the CPU time of one reference sample on the 2-vCPU VM the
// benchmark was defined on.
const refNominal = 10 * time.Millisecond

const (
	refKeys    = 400_000 // keys of the reference table
	refLookups = 100_000 // lookups per sample
)

// speedRefArg, as momobench's only argument, makes it the speed-reference
// helper.
const speedRefArg = "speedref"

// refKernel is the reference table and the generator of its lookups.
type refKernel struct {
	table map[uint64]float64
	rng   *rand.Rand
	sink  float64
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make(map[uint64]float64), rng: rand.New(rand.NewSource(7))}
	for i := 0; i < refKeys; i++ {
		k.table[refKey(uint64(i))] = float64(i)
	}
	return k
}

// refKey spreads consecutive numbers over the whole key space.
func refKey(i uint64) uint64 { return i * 0x9E3779B97F4A7C15 }

// pass makes one sample's lookups.
func (k *refKernel) pass() {
	for i := 0; i < refLookups; i++ {
		k.sink += k.table[refKey(uint64(k.rng.Int63n(refKeys)))]
	}
}

// serveSpeedRef is the helper process: it answers every line it reads with
// the thread CPU seconds of one pass, until its input ends.
func serveSpeedRef(in io.Reader, out io.Writer) int {
	runtime.LockOSThread()
	k := newRefKernel()
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		start := threadCPU()
		k.pass()
		if _, err := fmt.Fprintf(out, "%.9f\n", (threadCPU() - start).Seconds()); err != nil {
			return 1
		}
	}
	return 0
}

// speedRef is the benchmark's end of the helper and the samples it gave.
type speedRef struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []float64 // seconds
}

// startSpeedRef starts the helper process. Its caller must stop it.
func startSpeedRef() (*speedRef, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, speedRefArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &speedRef{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// sample takes n reference samples; the benchmark waits while the helper
// works. A nil speedRef samples nothing.
func (s *speedRef) sample(n int) error {
	if s == nil {
		return nil
	}
	for i := 0; i < n; i++ {
		if _, err := io.WriteString(s.in, "\n"); err != nil {
			return fmt.Errorf("speed reference: %w", err)
		}
		if !s.out.Scan() {
			return fmt.Errorf("speed reference: %w", errors.Join(s.out.Err(), io.ErrUnexpectedEOF))
		}
		v, err := strconv.ParseFloat(s.out.Text(), 64)
		if err != nil {
			return fmt.Errorf("speed reference: %w", err)
		}
		s.samples = append(s.samples, v)
	}
	return nil
}

// stop ends the helper and waits for it to exit.
func (s *speedRef) stop() error {
	s.in.Close()
	return s.cmd.Wait()
}

// factor is how much slower than the nominal machine the host ran: the
// median sample over refNominal.
func (s *speedRef) factor() float64 { return median(s.samples) / refNominal.Seconds() }

// scaledCPU converts CPU time measured on this host into seconds of the
// nominal machine and says how in a note.
func (s *speedRef) scaledCPU(cpu time.Duration, what string) (float64, string) {
	f := s.factor()
	return cpu.Seconds() / f, fmt.Sprintf("CPU of %s: %.3f s on this host, where the reference took %.3fx nominal (n=%d)",
		what, cpu.Seconds(), f, len(s.samples))
}

// threadCPU returns the CPU time of the calling thread, which leaves out
// the hypervisor's steal.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
