package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint printed on every report: numbers from different
// host shapes are not comparable, and a wall-clock number without its shape is
// not evidence.
type hostInfo struct {
	NumCPU     int
	GOMAXPROCS int
	CPUModel   string
	GoVersion  string
	Commit     string
}

func fingerprint() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		// run.sh exports the commit when the checkout is a git repository.
		Commit: os.Getenv("ATRAPOS_BENCH_COMMIT"),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

func (h hostInfo) String() string {
	return fmt.Sprintf("host: %d cpus, GOMAXPROCS %d, %s, %s, commit %s",
		h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit)
}

// oversubscribed reports whether the executed workloads' two pinned executors
// would share a processor on this host.
func (h hostInfo) oversubscribed() bool { return h.NumCPU < 2 || h.GOMAXPROCS < 2 }

// disturbance is how noisy the host was while a workload ran.
type disturbance struct {
	// StealShare is the share of all CPU time, over the run, the hypervisor
	// gave to other guests (/proc/stat steal); 0 where the kernel does not
	// report it.
	StealShare float64
	// SegSpread is the timed segments' interquartile range over their median.
	SegSpread float64
}

// disturbedSteal is the steal share above which a run is labelled disturbed.
// It is still reported, never silently retried.
const disturbedSteal = 0.10

func (d disturbance) String() string {
	label := "quiet"
	if d.StealShare > disturbedSteal {
		label = "disturbed"
	}
	return fmt.Sprintf("%s: steal %.1f%%, segment spread %.1f%%", label, 100*d.StealShare, 100*d.SegSpread)
}

// stealProbe remembers the CPU counters at the start of a measurement.
type stealProbe struct{ steal, total uint64 }

func startSteal() stealProbe {
	s, t := readCPUTicks()
	return stealProbe{steal: s, total: t}
}

func (p stealProbe) stop(segNS []float64) disturbance {
	s, t := readCPUTicks()
	d := disturbance{SegSpread: iqrShare(segNS)}
	if t > p.total {
		d.StealShare = float64(s-p.steal) / float64(t-p.total)
	}
	return d
}

// readCPUTicks returns the steal and total tick counts of the aggregate "cpu"
// line of /proc/stat, or zeros when it cannot be read.
func readCPUTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already part of user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
