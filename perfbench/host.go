package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostBlock describes the machine and how much of it the run had: a run
// taken under heavy hypervisor steal is visible in its own output instead
// of being silently kept or dropped.
type hostBlock struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GCCycles   uint32  `json:"gc_cycles"`
	StealShare float64 `json:"steal_share"`
}

type hostStart struct {
	gc           uint32
	steal, total uint64
}

func startHost() hostStart {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, total := cpuTicks()
	return hostStart{ms.NumGC, steal, total}
}

func (h hostStart) finish() hostBlock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	steal, total := cpuTicks()
	hb := hostBlock{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GCCycles:   ms.NumGC - h.gc,
	}
	if total > h.total {
		hb.StealShare = float64(steal-h.steal) / float64(total-h.total)
	}
	return hb
}

// cpuTicks reads the machine-wide steal and total ticks from /proc/stat;
// zeros where the file is missing.
func cpuTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		// user nice system idle iowait irq softirq steal [guest guest_nice],
		// guest time already counted in user.
		for i, s := range fields[1:9] {
			v, _ := strconv.ParseUint(s, 10, 64)
			total += v
			if i == 7 {
				steal = v
			}
		}
		return steal, total
	}
	return 0, 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
