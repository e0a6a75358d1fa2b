// Command perfbench is the repository's end-to-end and per-layer benchmark.
// For one named workload and seed it generates a scenario spec, builds
// cmd/amacsim from the checkout, and then either
//
//   - with --trace 0, runs `amacsim -scenario <spec>` as a child process
//     repeatedly for --seconds and reports the end-to-end metrics (wall,
//     set-up, CPU, peak RSS, receive and trial throughput), or
//   - with --trace 1, runs the same spec in-process with the scheduler,
//     the automata and the trace sink wrapped in timing decorators, and
//     reports where the time goes layer by layer.
//
// Every run also gates correctness: the child must exit 0 with every trial
// solved and checked, and its simulated statistics must equal the
// in-process execution's (and the values recorded in expected.json for the
// seed, when there are some). The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. Run it from
// the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload rgg-bmmb-large --seed 1 --seconds 20 --trace 0
//
// --record SEEDS prints the expected.json entries for the given seeds
// ("1-10,99") of every workload instead of benchmarking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process boundary; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "benchmark seed; the generated scenario is a pure function of it")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced amacsim runs; 1: per-layer metrics from the traced in-process run")
	record := fs.String("record", "", "print expected.json entries for these seeds (e.g. 1-10,99) instead of benchmarking")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkRoot(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := makeTemp()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	if *record != "" {
		if err := recordExpected(*record, tmp, stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%v), --seconds > 0 and --trace 0|1\n", err)
		return 2
	}
	bin, err := buildAmacsim(tmp)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b := &bench{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		bin: bin, tmp: tmp, log: stderr, metrics: map[string]metric{},
	}
	if *trace == 0 {
		err = b.endToEnd()
	} else {
		err = b.layers()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	buf, err := json.Marshal(result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

// checkRoot refuses to run anywhere but the root of an amac checkout.
func checkRoot() error {
	for _, p := range []string{"go.mod", filepath.Join("cmd", "amacsim")} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root: %w", err)
		}
	}
	return nil
}

// makeTemp creates this invocation's temp directory under .bench_build,
// inside the checkout.
func makeTemp() (string, error) {
	parent := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
