package main

import (
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	text := "4242 (sas (serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 75 0 0 20 0 8 0 12345 100000 2000\n"
	got, err := parseProcStatCPU(text)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcStatCPU("4242 sasserve S 1"); err == nil {
		t.Error("malformed stat line parsed without error")
	}
}

func TestParseStatusKB(t *testing.T) {
	text := "Name:\tsasserve\nVmPeak:\t  900000 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30000 kB\n"
	got, err := parseStatusKB(text, "VmHWM")
	if err != nil || got != 40960 {
		t.Errorf("VmHWM = %d, %v; want 40960", got, err)
	}
	if _, err := parseStatusKB(text, "VmSwap"); err == nil {
		t.Error("missing key parsed without error")
	}
}

func TestParseIOField(t *testing.T) {
	text := "rchar: 100\nwchar: 123456789\nsyscr: 3\nsyscw: 4\nread_bytes: 0\nwrite_bytes: 4096\n"
	got, err := parseIOField(text, "wchar")
	if err != nil || got != 123456789 {
		t.Errorf("wchar = %d, %v; want 123456789", got, err)
	}
}

func TestParseHostCPUAndSteal(t *testing.T) {
	a, err := parseHostCPU("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 0 0\nintr 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 35 {
		t.Errorf("first reading = %+v, want total 1000 steal 35", a)
	}
	b, err := parseHostCPU("cpu  200 0 100 1500 20 0 10 170 9 0\n")
	if err != nil {
		t.Fatal(err)
	}
	// 1000 ticks passed, 135 of them stolen.
	if got := stealPct(a, b); got != 13.5 {
		t.Errorf("steal = %v%%, want 13.5%%", got)
	}
	if _, err := parseHostCPU("cpu0 1 2 3\n"); err == nil {
		t.Error("text without the aggregate line parsed without error")
	}
}
