// Command benchmark is the repository's benchmark: it drives a real
// ah.Host → (optional relay.Relay over TCP loopback) → real UDP loopback
// sockets → real participant.Participants from one process and prints
// pixel-to-viewer latency, fan-out capacity, wire cost and join cost by
// name, end to end and — with -trace 1 — layer by layer. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+strings.Join(specNames(), ", ")+" or all")
		seed         = flag.Int64("seed", 1, "seed of the workload generator and the loss decorator")
		seconds      = flag.Float64("seconds", 25, "length of the measured window")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes benchmark/out/trace-<workload>.json")
		runs         = flag.Int("runs", 1, "times each workload is run; -compare reads the spread from repeated runs")
		jsonPath     = flag.String("json", "", "also write the results and the environment to this file (the input of -compare)")
		layersOnly   = flag.Bool("layers-only", false, "run only the direct-drive pass over each layer's public functions")
		compare      = flag.Bool("compare", false, "compare two -json files by the bounds of ./BENCHMARK.json: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	var chosen []*spec
	for _, sp := range specs {
		if *workloadName == "all" || *workloadName == sp.name {
			chosen = append(chosen, sp)
		}
	}
	if len(chosen) == 0 {
		fatal(fmt.Errorf("unknown workload %q (have %s, all)", *workloadName, strings.Join(specNames(), ", ")))
	}
	if *seconds <= 0 || *runs < 1 {
		fatal(fmt.Errorf("-seconds and -runs must be positive"))
	}
	env := environment(*seed)
	o := options{seed: *seed, seconds: *seconds, setups: setupBuilds, traceDir: "benchmark/out"}
	file := resultFile{Env: env}
	exit := 0
	if jobs := len(chosen) * *runs; jobs > 1 {
		// One process per run, as the driver makes them: a run that
		// follows others in one process inherits their heap and reads up
		// to 10 % slower.
		for i := 0; i < jobs; i++ {
			results, err := runChild(chosen[i%len(chosen)].name, o, *trace, *layersOnly, i)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				exit = 1
			}
			file.Results = append(file.Results, results...)
		}
	} else {
		printConfig(env, chosen, *seconds, *trace == 1)
		if !env.Valid {
			fmt.Println("WARNING: GOMAXPROCS < 2: driver, host and viewers share one processor; this run is invalid as a measurement")
		}
		res, err := runOne(chosen[0], o, *trace == 1, *layersOnly)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", chosen[0].name, err)
			exit = 1
			if res != nil && res.Correct {
				res = nil // unusable for another reason than a wrong output: no result
			}
		}
		if res != nil {
			printResult(res)
			file.Results = append(file.Results, res)
		}
	}
	if *jsonPath != "" {
		if err := file.write(*jsonPath); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the machine-readable result.
	if line := file.contractLine(); line != nil {
		out, err := json.Marshal(line)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	}
	os.Exit(exit)
}

// runOne runs one workload once, in this process.
func runOne(sp *spec, o options, traced, layersOnly bool) (*result, error) {
	switch {
	case layersOnly:
		direct, err := directDrive(sp, o.seed)
		if err != nil {
			return nil, err
		}
		res := newResult(sp, o, true)
		res.Correct, res.Attempted = true, 1
		for name, v := range direct {
			res.set(perLayer, name, v)
		}
		return res, nil
	case traced:
		return runTraced(sp, o)
	}
	return runEndToEnd(sp, o)
}

// runChild runs one workload once in a process of its own, passes its
// table through and returns the results it wrote.
func runChild(workload string, o options, trace int, layersOnly bool, job int) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return nil, err
	}
	handoff := filepath.Join(o.traceDir, fmt.Sprintf("run-%d.json", job))
	defer os.Remove(handoff)
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-layers-only="+fmt.Sprint(layersOnly), "-json", handoff)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// The child's last line is its own machine-readable result; this
	// process prints one for all of them.
	if i := strings.LastIndex(strings.TrimSuffix(string(out), "\n"), "\n"); i >= 0 {
		fmt.Println(string(out[:i]))
	}
	if runErr != nil {
		runErr = fmt.Errorf("%s: %w", workload, runErr)
	}
	f, err := readResultFile(handoff)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	return f.Results, runErr
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
