package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors now(): monotonic nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// cpuNow returns the process's user+system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// sleeper wakes a goroutine at a precise time through a timerfd owned by
// Go's network poller. Go's own timers round sub-millisecond sleeps up to
// a millisecond on an idle process, and a plain nanosleep holds the
// caller's P, hiding network readiness from the scheduler for up to
// sysmon's 10ms period; both would swamp the latencies being measured.
type sleeper struct {
	fd int
	f  *os.File
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// until blocks until now() ≥ t.
func (s *sleeper) until(t int64) error {
	d := t - now()
	if d <= 0 {
		return nil
	}
	// struct itimerspec {it_interval, it_value}: a one-shot relative timer.
	spec := [4]int64{0, 0, d / 1e9, d % 1e9}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := s.f.Read(expirations[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }

// peakRSSMiB returns VmHWM, the process's peak resident set, in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostInfo describes the machine a result was measured on.
type hostInfo struct {
	NProc      int
	GOMAXPROCS int
	Go         string
	CPUModel   string
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}
