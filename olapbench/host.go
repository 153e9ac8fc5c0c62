package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// hostFacts describe where and how a result was measured.
type hostFacts struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
	Command    string `json:"command"`
	Date       string `json:"date"`
	Seed       int64  `json:"seed"`
}

func collectHost(seed int64) hostFacts {
	return hostFacts{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitRev:     gitRev(),
		Command:    strings.Join(os.Args, " "),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
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

// gitRev names the checked-out commit when the working directory is a git
// checkout, and "unknown" otherwise (an exported source tree).
func gitRev() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
