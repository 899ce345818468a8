package main

import (
	"os"
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (sushi (server) x) S 1 4242 4242 0 -1 4194560 1500 0 3 0 137 64 0 0 20 0 9 0 123456 1000000 3000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(137+64) * clockTick; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "1 (x", "1 (x) S 1 2 3", "1 (x) S 1 2 3 4 5 6 7 8 9 10 eleven 12 13"} {
		if _, err := parseProcStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseProcStatCPU(%q) accepted malformed input", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsushi-server\nVmPeak:\t 1234 kB\nVmHWM:\t   12988 kB\nVmRSS:\t   100 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if want := 12988.0 / 1024; got != want {
		t.Errorf("VmHWM = %v MiB, want %v", got, want)
	}
	for _, bad := range []string{"Name: x\n", "VmHWM: lots kB\n", "VmHWM: 12 MB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed input", bad)
		}
	}
}

// The parsers must read the live files of this very process.
func TestProcSelf(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this platform")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mb, err := procPeakRSS(os.Getpid()); err != nil || mb <= 0 {
		t.Errorf("peak RSS %v MiB, err %v", mb, err)
	}
}
