package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat reports CPU time
// in these units. It is 100 on every Linux port Go supports; the
// standard library has no sysconf to ask.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU extracts utime+stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The command name (field 2) is wrapped
// in parentheses and may itself contain spaces and parentheses, so
// fields are counted from the LAST closing parenthesis.
func parseProcStatCPU(stat []byte) (time.Duration, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ") " the next field is number 3 (state); utime and stime are
	// fields 14 and 15, i.e. indexes 11 and 12 of the remainder.
	f := strings.Fields(string(stat[end+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procCPU reads a process's accumulated user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(b)
}

// parseVmHWM extracts the peak resident set ("VmHWM:  12988 kB") from
// the contents of /proc/<pid>/status, in MiB.
func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procPeakRSS reads a process's peak resident set in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// retainedHeapMB is the live heap after a forced collection, in MiB:
// what the structures still referenced at the call (a finished simq
// result, an engine's arenas and weights) hold. Unlike a peak resident
// set it does not depend on when the collector happened to run.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// selfCPU is the benchmark process's own user+system CPU time, at
// getrusage's microsecond resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
