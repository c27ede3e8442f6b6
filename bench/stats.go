package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of v by nearest rank on a
// sorted copy; v must not be empty.
func quantile(v []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

// median averages the two middle values of an even count, so that two
// samples do not report the slower one.
func median(v []time.Duration) time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tail returns the highest of p99, p90 and p75 that has at least ten samples
// beyond it, with the percentile it chose.
func tail(v []time.Duration) (time.Duration, int) {
	switch n := len(v); {
	case n >= 1000:
		return quantile(v, 0.99), 99
	case n >= 100:
		return quantile(v, 0.90), 90
	default:
		return quantile(v, 0.75), 75
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// selfCPUSplit is the user and system CPU time this process has used.
func selfCPUSplit() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// selfCPU is their sum.
func selfCPU() time.Duration {
	user, sys := selfCPUSplit()
	return user + sys
}

// clockTick is the kernel's USER_HZ, which is 100 on every Linux port Go
// supports.
const clockTick = 10 * time.Millisecond

// procCPU is the user+system CPU time of a live process, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	rest := string(data[strings.LastIndexByte(string(data), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// procStatus reads one numeric field (such as VmHWM, in kB, or Threads) of
// /proc/<pid>/status; pid 0 means this process.
func procStatus(pid int, field string) (int64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in %s", field, path)
}

// openFDs counts this process's open file descriptors.
func openFDs() (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err
}
