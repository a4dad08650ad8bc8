package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envBlock records where a run was made; -compare refuses to compare
// across differing GOMAXPROCS.
type envBlock struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"git_commit"`
	// Valid is false when the run shared one processor between driver,
	// host and viewers.
	Valid bool `json:"valid"`
}

func environment(seed int64) envBlock {
	env := envBlock{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", Seed: seed, Commit: "unknown",
	}
	env.Valid = env.GOMAXPROCS >= 2
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git work tree the commit stays unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(b))
	}
	return env
}

// resultFile is what -json writes and -compare reads. A workload may
// appear several times (-runs): the comparator then knows the spread.
type resultFile struct {
	Env     envBlock  `json:"env"`
	Results []*result `json:"results"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// contract is the one-line result the benchmark contract asks for.
type contract struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// contractLine folds the file's results into one contract object. One
// result keeps its metric names; several are prefixed by workload.
func (f *resultFile) contractLine() *contract {
	if len(f.Results) == 0 {
		return nil
	}
	c := &contract{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range f.Results {
		c.Correct = c.Correct && r.Correct
		c.Attempted += r.Attempted
		c.Failed += r.Failed
		for name, m := range r.Metrics {
			if len(f.Results) > 1 {
				name = r.Workload + "/" + name
			}
			c.Metrics[name] = m
		}
	}
	return c
}

// printConfig says what is measured, so nobody has to read the source to
// know which settings differ from the product's defaults.
func printConfig(env envBlock, chosen []*spec, seconds float64, traced bool) {
	fmt.Printf("env: %s %s/%s nproc=%d GOMAXPROCS=%d kernel=%s seed=%d commit=%s\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.NumCPU, env.GOMAXPROCS, env.Kernel, env.Seed, env.Commit)
	fmt.Printf("desktop %dx%d, one shared window 1024x768 at (100,80), PNG, real UDP/TCP loopback sockets, window %.1f s, traced=%v\n",
		deskW, deskH, seconds, traced)
	fmt.Println("settings that differ from the product's defaults:")
	fmt.Println("  every workload   HostConfig.Stats set (the counters the per-layer metrics read)")
	fmt.Printf("  every viewer     UDP read buffer %d MiB; Connection.RepairLoop every %v, no jitter\n", viewerReadBytes>>20, repairInterval)
	for _, sp := range chosen {
		loop := "closed loop"
		if sp.hz > 0 {
			loop = fmt.Sprintf("open loop %d ticks/s", sp.hz)
		}
		fmt.Printf("  %-16s %s, %d residents", sp.name, loop, sp.residents)
		if sp.relay {
			fmt.Print(", via relay (default RelayConfig) over TCP loopback")
		}
		if sp.sinks > 0 {
			fmt.Printf(", %d in-process sinks (PacketConn+BatchSender that discard)", sp.sinks)
		}
		if sp.retrans {
			fmt.Print(", HostConfig.Retransmissions=true")
		}
		if sp.lossRate > 0 {
			fmt.Printf(", residents drop %.0f%% of received datagrams", sp.lossRate*100)
		}
		if sp.joinEvery > 0 {
			fmt.Printf(", one joiner every %v", sp.joinEvery)
		}
		fmt.Println()
	}
}

func printResult(r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer"
	}
	fmt.Printf("\n%s  %s  seed=%d  correct=%v  attempted=%d failed=%d\n", r.Workload, kind, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, name := range sortedNames(r) {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Println(line)
	}
	for _, note := range r.Notes {
		fmt.Println("  note:", note)
	}
}
