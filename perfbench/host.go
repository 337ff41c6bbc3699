package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostBlock identifies the machine and build a result was measured on. A
// result from another host is context, never a baseline to compare with.
type hostBlock struct {
	Nproc      int    `json:"nproc"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostInfo(nproc int) hostBlock {
	h := hostBlock{
		Nproc:      nproc,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

//go:embed digests.json
var digestsJSON []byte

// digestFile pins, per workload and size, the SHA-256 of the outputs and the
// exact-repeat counts at the default seed. Keys are the workload name, with
// "@tiny" appended for the self-test's size.
type digestFile struct {
	Outputs map[string]map[string]string  `json:"outputs"`
	Counts  map[string]map[string]float64 `json:"counts"`
}

func loadDigests() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func (b *bench) digestKey() string {
	if b.tiny {
		return b.workload + "@tiny"
	}
	return b.workload
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkPinnedOutput compares an output's digest with the one pinned for the
// default seed. It reports whether the output matched (or nothing is
// pinned); a mismatch is a correctness problem.
func (b *bench) checkPinnedOutput(name string, data []byte) bool {
	if b.seed != defaultSeed {
		return true
	}
	got := sha(data)
	want, ok := b.digests.Outputs[b.digestKey()][name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no pinned digest for %s %s; computed %s\n", b.digestKey(), name, got)
		return true
	}
	if got != want {
		b.problem("%s %s at seed %d has digest %s, pinned %s", b.digestKey(), name, b.seed, got, want)
		return false
	}
	return true
}

// checkExactRepeat compares the exact-repeat counts with those pinned for
// the default seed; any difference means the simulation's semantics
// changed.
func (b *bench) checkExactRepeat() {
	if b.seed != defaultSeed {
		return
	}
	want, ok := b.digests.Counts[b.digestKey()]
	if !ok {
		got := map[string]float64{}
		for _, name := range exactRepeat {
			got[name] = b.metrics[name].Value
		}
		line, _ := json.Marshal(got)
		fmt.Fprintf(os.Stderr, "perfbench: no pinned exact-repeat counts for %s; computed %s\n", b.digestKey(), line)
		return
	}
	for _, name := range exactRepeat {
		if got := b.metrics[name].Value; got != want[name] {
			b.problem("exact-repeat count %s on %s at seed %d is %v, pinned %v: the simulation's semantics changed",
				name, b.digestKey(), b.seed, got, want[name])
		}
	}
}
