package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint says where and how a result was taken. Two results compare
// only when these agree; calibration_ok false means the host was loaded and
// the run should be repeated rather than compared.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`

	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Loop          string  `json:"loop"`
	Clients       int     `json:"clients"`
	// CoreBound is set when the host has fewer cores than client threads:
	// the clients then take turns and the numbers are the scheduler's.
	CoreBound     bool `json:"core_bound"`
	DeviceLatency bool `json:"device_latency"`
	GroupCommit   bool `json:"group_commit"`

	// CalibrationOK is false when a device primitive measured more than a
	// fifth off the latency model at start-up, or when the hypervisor took
	// more than maxStealPct of the window's CPU time for other guests.
	CalibrationOK bool    `json:"calibration_ok"`
	Persist64bNs  float64 `json:"pmem_persist_64b_ns"`
	SSDWrite4kUs  float64 `json:"ssd_write_4k_us"`
	StealPct      float64 `json:"window_steal_pct"`
	GCCycles      uint32  `json:"runtime_gc_cycles"`
}

// maxStealPct is the stolen share of the window past which a run is marked
// as taken on a loaded host.
const maxStealPct = 2

func newFingerprint(opt options, cal calibration) fingerprint {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fingerprint{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GOGC:          gogc,
		Commit:        commit,
		Seed:          opt.seed,
		WindowSeconds: opt.window.Seconds(),
		WarmupSeconds: opt.warmup.Seconds(),
		Loop:          "closed",
		Clients:       clients,
		CoreBound:     runtime.GOMAXPROCS(0) < clients,
		DeviceLatency: true,
		GroupCommit:   true,
		CalibrationOK: cal.ok,
		Persist64bNs:  cal.persist64bNs,
		SSDWrite4kUs:  cal.write4kUs,
	}
}

// cpuTime is the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolenTicks is the CPU time the hypervisor gave to other guests while this
// one wanted to run, over all CPUs, in clock ticks of 10 ms (the "steal"
// column of /proc/stat); 0 where /proc does not say.
func stolenTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM), NaN
// where /proc does not say.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return nan
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nan
			}
			return kb / 1024
		}
	}
	return nan
}
