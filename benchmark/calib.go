package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration. On a shared virtual machine the speed at which
// the repair engine's allocation- and map-heavy code runs drifts by tens
// of percent over minutes, far more than the regressions the benchmark
// must catch, and the drift slows every design of a run alike. So while
// a run measures, a child process times a fixed reference computation
// twice a second, and the run reports its times scaled by
// refNominal / (mean reference time): the time the work would take on a
// host running the reference at its nominal speed. The reference is
// benchmark code in its own process, so no change to the repository
// moves it.
const (
	// refNominal is the reference's mean time in the probe, measured
	// while the benchmark runs on a 2-vCPU Xeon host with Go 1.24.
	refNominal = 50 * time.Millisecond
	// probeEnv marks the child process that runs the probe.
	probeEnv      = "RTLREPAIR_BENCHMARK_PROBE"
	probeInterval = 500 * time.Millisecond
)

// hostProbe is the running probe process.
type hostProbe struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	done    chan struct{}
	samples []time.Duration // owned by the reader goroutine until done
}

// startHostProbe starts this executable as the probe process.
func startHostProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p := &hostProbe{cmd: exec.Command(exe), done: make(chan struct{})}
	p.cmd.Env = append(os.Environ(), probeEnv+"=1")
	p.cmd.Stderr = os.Stderr
	if p.stdin, err = p.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start host probe: %w", err)
	}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if ns, err := strconv.ParseInt(sc.Text(), 10, 64); err == nil {
				p.samples = append(p.samples, time.Duration(ns))
			}
		}
	}()
	return p, nil
}

// stop ends the probe process, waits for it, and returns the factor that
// converts this run's times to nominal host speed.
func (p *hostProbe) stop() (float64, error) {
	p.stdin.Close()
	<-p.done
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	if len(p.samples) == 0 {
		return 0, fmt.Errorf("host probe reported no samples")
	}
	var sum time.Duration
	for _, d := range p.samples {
		sum += d
	}
	return refNominal.Seconds() * float64(len(p.samples)) / sum.Seconds(), nil
}

// runProbe is the probe process: until in closes, every probeInterval
// it returns its free memory to the system, as the benchmark does before
// each repair, then times reference() by this thread's CPU clock, which
// leaves out waits for a CPU that the repair's own threads cause. The
// first sample is taken at once, so every run gets one.
func runProbe(in io.Reader, out io.Writer) {
	runtime.LockOSThread()
	stop := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, in) // any read error also means stop
		close(stop)
	}()
	tick := time.NewTicker(probeInterval)
	defer tick.Stop()
	for {
		debug.FreeOSMemory()
		start := threadCPUTime()
		reference()
		if _, err := fmt.Fprintln(out, threadCPUTime()-start); err != nil {
			return
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// threadCPUTime reads the calling thread's CPU clock (Linux).
func threadCPUTime() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

type refNode struct {
	key  string
	next *refNode
	val  [4]uint64
}

var refSink int

// reference builds and probes a string-keyed map of linked heap nodes
// and sorts its keys: fixed work with the engine's mix of allocation,
// hashing and pointer chasing.
func reference() {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	m := make(map[string]*refNode)
	keys := make([]string, 0, n)
	var head *refNode
	for i := 0; i < n; i++ {
		k := "n" + strconv.FormatUint(rng.Uint64()%(2*n), 36)
		head = &refNode{key: k, next: head, val: [4]uint64{uint64(i)}}
		m[k] = head
		keys = append(keys, k)
	}
	hits := 0
	for r := 0; r < 4; r++ {
		for _, k := range keys {
			hits += int(m[k].val[0] & 1)
		}
	}
	slices.Sort(keys)
	refSink = hits + len(keys[0])
}
