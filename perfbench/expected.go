package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// expectation is the recorded simulated outcome of a workload at one seed.
// Executions are pure functions of the spec, so a change that only makes
// the program faster leaves every field identical.
type expectation struct {
	Net        network `json:"net"`
	Trials     int     `json:"trials"`
	Steps      uint64  `json:"steps"`
	Delivered  int     `json:"delivered"`
	Completion int64   `json:"completion_sum"`
	Rcv        int64   `json:"rcv"`
	TraceBytes int64   `json:"trace_bytes"`
	// Digest is the SHA-256 of the per-trial statistics, so every trial's
	// completion, deliveries and events are pinned, not only the sums.
	Digest string `json:"digest"`
}

//go:embed expected.json
var expectedJSON []byte

// expected maps workload name -> seed -> recorded outcome.
var expected = func() map[string]map[string]expectation {
	var m map[string]map[string]expectation
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: expected.json: %v", err))
	}
	return m
}()

// expectationOf summarizes an in-process run.
func expectationOf(r *inproc) expectation {
	e := expectation{Net: r.net, Trials: len(r.trials), Rcv: r.layers.rcv, TraceBytes: r.traceBytes}
	for _, st := range r.trials {
		e.Steps += st.Steps
		e.Delivered += st.Delivered
		e.Completion += st.Completion
	}
	buf, err := json.Marshal(r.trials)
	if err != nil {
		panic(err) // a slice of plain structs always marshals
	}
	sum := sha256.Sum256(buf)
	e.Digest = hex.EncodeToString(sum[:])
	return e
}

// gateExpected compares an in-process run with the values recorded for
// the workload seed, when there are some.
func (b *bench) gateExpected(r *inproc) {
	want, ok := expected[b.w.name][strconv.FormatInt(b.seed, 10)]
	if !ok {
		return
	}
	if got := expectationOf(r); got != want {
		b.fail("simulated statistics differ from the values recorded for this seed:\n got %+v\nwant %+v", got, want)
	}
}

// recordExpected runs every workload at each listed seed in counting mode
// and prints the expectations as expected.json.
func recordExpected(list, tmp string, out io.Writer) error {
	seeds, err := parseSeeds(list)
	if err != nil {
		return err
	}
	m := map[string]map[string]expectation{}
	for _, w := range workloads {
		m[w.name] = map[string]expectation{}
		for _, seed := range seeds {
			r, err := execute(serial(w.specFor(seed)), counting, tmp)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			if r.failed > 0 {
				return fmt.Errorf("%s seed %d: %d trials failed", w.name, seed, r.failed)
			}
			m[w.name][strconv.FormatInt(seed, 10)] = expectationOf(r)
		}
	}
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", buf)
	return err
}

// parseSeeds reads a seed list like "1-10,99".
func parseSeeds(list string) ([]int64, error) {
	var seeds []int64
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("seed list %q: %w", list, err)
		}
		z := a
		if isRange {
			if z, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("seed list %q: %w", list, err)
			}
		}
		for s := a; s <= z; s++ {
			seeds = append(seeds, s)
		}
	}
	return seeds, nil
}
