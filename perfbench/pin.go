package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// rotatePeriod is how long a pinned phase stays on one CPU before the
// load generator and the daemon move together to the next.
const rotatePeriod = 250 * time.Millisecond

// cpuMask is a sched_setaffinity mask for CPUs 0..1023.
type cpuMask [16]uint64

// allowedCPUs returns the CPUs this process may run on, in order.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %v", e)
	}
	var cpus []int
	for i := range len(m) * 64 {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// pinProcess moves every thread of pid to cpu. A thread started while
// this runs inherits its creator's mask, which is then already cpu or is
// moved on the next call.
func pinProcess(pid, cpu int) error {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return err
	}
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		// A thread may exit between the listing and the call.
		if e != 0 && e != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity %d: %v", tid, e)
		}
	}
	return nil
}

// pinSelf confines the load generator to one CPU before it starts any
// daemon, so a daemon started later inherits that CPU, and Go sizes the
// daemon's GOMAXPROCS to it. It returns the CPUs the phase rotates over
// (nil when the process may use only one).
func pinSelf() ([]int, error) {
	cpus, err := allowedCPUs()
	if err != nil || len(cpus) < 2 {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	return cpus, pinProcess(os.Getpid(), cpus[0])
}

// rotate moves the load generator and the daemon together to the next
// CPU of cpus every rotatePeriod until stop closes. The pair never spans
// two CPUs, so a probe wakes the daemon without a cross-CPU wake-up, and
// each CPU carries the phase for an equal share of its time.
func rotate(pid int, cpus []int, stop chan struct{}) error {
	t := time.NewTicker(rotatePeriod)
	defer t.Stop()
	for k := 1; ; k++ {
		select {
		case <-stop:
			return nil
		case <-t.C:
		}
		cpu := cpus[k%len(cpus)]
		for _, p := range []int{os.Getpid(), pid} {
			if err := pinProcess(p, cpu); err != nil {
				return err
			}
		}
	}
}
