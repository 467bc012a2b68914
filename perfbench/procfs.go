package main

// procfs.go reads the counters the benchmark takes from outside a process:
// CPU time from /proc/<pid>/stat, peak resident memory from
// /proc/<pid>/status, bytes written from /proc/<pid>/io, and the host's
// steal time from /proc/stat. Each reader is split into a parser over the
// file's text, so the parsers are tested on fixtures.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// userHZ is the unit of the tick counts in /proc/<pid>/stat and /proc/stat.
// Linux reports both in USER_HZ, which is 100 on every architecture Go
// supports, independent of the kernel's internal HZ.
const userHZ = 100

// parseProcStatCPU returns utime+stime of a /proc/<pid>/stat line: the CPU
// time of every thread of the process, user and kernel.
func parseProcStatCPU(text string) (time.Duration, error) {
	// The command name (field 2) is parenthesized and may contain spaces,
	// so fields are counted from the last ')'.
	i := strings.LastIndexByte(text, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * (time.Second / userHZ), nil
}

// parseStatusKB returns the value of a "Key:   <n> kB" line of
// /proc/<pid>/status, in KiB.
func parseStatusKB(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// parseIOField returns one "key: <n>" counter of /proc/<pid>/io.
func parseIOField(text, key string) (int64, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("proc io: no %s line", key)
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in ticks.
type cpuTimes struct {
	total, steal uint64
}

// parseHostCPU reads the aggregate cpu line of /proc/stat. total sums the
// first eight columns (user through steal); guest time is already counted
// inside user and nice, so the guest columns are left out.
func parseHostCPU(text string) (cpuTimes, error) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "cpu" {
			continue
		}
		if len(f) < 9 {
			return cpuTimes{}, fmt.Errorf("proc stat: cpu line has %d columns, want at least 8", len(f)-1)
		}
		var ct cpuTimes
		for i, s := range f[1:9] {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}, fmt.Errorf("proc stat: %w", err)
			}
			ct.total += v
			if i == 7 {
				ct.steal = v
			}
		}
		return ct, nil
	}
	return cpuTimes{}, fmt.Errorf("proc stat: no aggregate cpu line")
}

// stealPct is the share of CPU time stolen by the hypervisor between two
// readings, in percent.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

func readProc(pid int, file string) (string, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	return string(b), err
}

// procCPU returns the CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	text, err := readProc(pid, "stat")
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(text)
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	text, err := readProc(pid, "status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(text, "VmHWM")
	return float64(kb) / 1024, err
}

// procWchar returns the bytes a process has passed to write calls so far.
func procWchar(pid int) (int64, error) {
	text, err := readProc(pid, "io")
	if err != nil {
		return 0, err
	}
	return parseIOField(text, "wchar")
}

// hostCPU reads the host's aggregate CPU counters.
func hostCPU() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	return parseHostCPU(string(b))
}
