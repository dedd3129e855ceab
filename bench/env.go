package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// environment is recorded in every result file, so that two files can be
// told apart when their numbers disagree.
type environment struct {
	Commit            string  `json:"commit"`
	GoVersion         string  `json:"go_version"`
	NumCPU            int     `json:"nproc"`
	LoadgenGOMAXPROCS int     `json:"loadgen_gomaxprocs"`
	ServerGOMAXPROCS  int     `json:"server_gomaxprocs"`
	Kernel            string  `json:"kernel"`
	CPUModel          string  `json:"cpu_model"`
	LoadAvg1          float64 `json:"loadavg_1min"`
}

func readEnv(root string) environment {
	e := environment{
		Commit:            "unknown",
		GoVersion:         runtime.Version(),
		NumCPU:            runtime.NumCPU(),
		LoadgenGOMAXPROCS: runtime.GOMAXPROCS(0),
		// The server is started without GOMAXPROCS in its environment unless
		// the caller exported one, so it resolves the same default.
		ServerGOMAXPROCS: runtime.NumCPU(),
	}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		e.ServerGOMAXPROCS = v
	}
	// A driver's checkout is not a git repository; "unknown" is the answer there.
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// flags marks a machine on which the numbers deserve suspicion; the run is
// not failed for it.
func (e environment) flags() []string {
	var f []string
	if e.NumCPU < 2 {
		f = append(f, "single_cpu")
	}
	if e.LoadAvg1 > 0.5*float64(e.NumCPU) {
		f = append(f, "machine_busy")
	}
	return f
}
