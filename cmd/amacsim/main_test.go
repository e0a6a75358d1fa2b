package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeScenario dumps the flag-assembled ring scenario to a temp file, the
// same way a user graduates a flag invocation into a scenario file.
func writeScenario(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(append(args, "-dump"), &buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScenarioFileRuns(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	var out bytes.Buffer
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "solved     : true") {
		t.Fatalf("report missing solved line:\n%s", out.String())
	}
}

// TestScenarioContentFlagConflicts pins the conflict contract: a scenario
// *content* flag given alongside -scenario must error instead of being
// silently ignored (the file, not the flag, owns the scenario contents).
func TestScenarioContentFlagConflicts(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	for _, args := range [][]string{
		{"-scenario", path, "-topology", "line"},
		{"-scenario", path, "-n", "64"},
		{"-scenario", path, "-alg", "fmmb"},
		{"-scenario", path, "-sched", "random"},
		{"-scenario", path, "-rel", "0.9"},
		{"-scenario", path, "-fprog", "20"},
		{"-scenario", path, "-fack", "400"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("args %v: want conflict error, got success", args[2:])
			continue
		}
		if !strings.Contains(err.Error(), "conflicts with -scenario") {
			t.Errorf("args %v: error %q does not name the conflict", args[2:], err)
		}
	}
}

// TestScenarioRunOptionFlagsMerge pins the documented precedence: run-option
// flags (seed, trials, parallel, check) override the file, so one saved
// scenario serves quick looks and Monte-Carlo runs.
func TestScenarioRunOptionFlagsMerge(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	var out bytes.Buffer
	if err := run([]string{"-scenario", path, "-trials", "3", "-seed", "9", "-parallel", "2"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	rep := out.String()
	if !strings.Contains(rep, "trials     : 3 seeds starting at 9") {
		t.Fatalf("run options not merged over the file:\n%s", rep)
	}
}

func TestScenarioExplicitZeroSeedRejected(t *testing.T) {
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2")
	var out bytes.Buffer
	err := run([]string{"-scenario", path, "-seed", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-seed must be non-zero") {
		t.Fatalf("want explicit-zero-seed error, got %v", err)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	var first bytes.Buffer
	if err := run([]string{"-topology", "ring", "-n", "12", "-k", "2", "-dump"}, &first); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.json")
	if err := os.WriteFile(path, first.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := run([]string{"-scenario", path, "-dump"}, &second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("dump of a loaded scenario diverged:\n%s\nvs\n%s", first.String(), second.String())
	}
}

// TestReadTraceDecodesStreamedRun drives the full streaming loop a large-n
// user runs: a scenario with "trace": "stream", then -read-trace over the file
// it produced. The summary must report the events of that execution, and
// the flag must refuse to combine with -scenario.
func TestReadTraceDecodesStreamedRun(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, "-topology", "ring", "-n", "12", "-k", "2", "-check=false")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pattern := filepath.Join(dir, "ring.amtr")
	patched := strings.Replace(string(raw), `"run": {`,
		`"run": {"trace": "stream", "trace_file": `+strconv.Quote(pattern)+`, `, 1)
	if err := os.WriteFile(path, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-scenario", path}, &out); err != nil {
		t.Fatalf("streamed run: %v\n%s", err, out.String())
	}

	out.Reset()
	traceFile := filepath.Join(dir, "ring.s1.amtr")
	if err := run([]string{"-read-trace", traceFile}, &out); err != nil {
		t.Fatalf("read-trace: %v\n%s", err, out.String())
	}
	for _, want := range []string{"events     : ", "bcast", "deliver"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, out.String())
		}
	}

	if err := run([]string{"-read-trace", traceFile, "-scenario", path}, &out); err == nil {
		t.Fatal("-read-trace with -scenario accepted")
	}
}
