package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuNow returns the CPU time this process has consumed, in nanoseconds.
// It reads CLOCK_PROCESS_CPUTIME_ID rather than getrusage because the
// windows are tens of milliseconds long and getrusage advances in scheduler
// ticks on kernels without precise accounting.
func cpuNow() int64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return ts.Nano()
}

// procFields returns the integers after "<key>:" for each of keys in a /proc
// key-value file, in the order of keys.
func procFields(path string, keys ...string) ([]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(keys))
next:
	for i, key := range keys {
		for _, line := range bytes.Split(b, []byte{'\n'}) {
			rest, ok := bytes.CutPrefix(line, []byte(key+":"))
			if f := bytes.Fields(rest); ok && len(f) > 0 {
				if out[i], err = strconv.ParseInt(string(f[0]), 10, 64); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", path, key, err)
				}
				continue next
			}
		}
		return nil, fmt.Errorf("%s: no %q field", path, key)
	}
	return out, nil
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	kb, err := procFields("/proc/self/status", "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb[0]) / 1024, nil
}

// ioCounters is the /proc/self/io view of read/write syscalls and the bytes
// they moved, sockets included.
type ioCounters struct{ syscalls, bytes int64 }

func readIO() (ioCounters, error) {
	v, err := procFields("/proc/self/io", "syscr", "syscw", "rchar", "wchar")
	if err != nil {
		return ioCounters{}, err
	}
	return ioCounters{syscalls: v[0] + v[1], bytes: v[2] + v[3]}, nil
}
