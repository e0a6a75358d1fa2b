package scenario_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"amac/internal/scenario"
	"amac/internal/sim"
	"amac/internal/topology"
)

// readTraceFile decodes one binary trace stream from disk.
func readTraceFile(t *testing.T, path string) *sim.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	tr, err := sim.NewTraceReader(f)
	if err != nil {
		t.Fatalf("trace header: %v", err)
	}
	all, err := tr.ReadAll()
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	return all
}

// TestTraceFileMatchesInMemoryTrace routes the golden-suite scenario
// through the disk sink and replays the file: the decoded stream must
// render identically to the in-memory trace of the same execution. This is
// the disk-reader leg of the golden contract — the streamed path cannot
// drop, reorder, or re-render events.
func TestTraceFileMatchesInMemoryTrace(t *testing.T) {
	spec, ok := goldenSpec("sync")
	if !ok {
		t.Fatal("no golden sync scenario")
	}
	// The golden spec runs with Check, which needs the in-memory trace;
	// the streamed variant drops Check, which does not affect the
	// execution itself (checkers only observe).
	spec.Run.Check = false

	inMem, err := scenario.Run(spec)
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	want := inMem.Trials[0].Result.Trace.String()
	if want == "" {
		t.Fatal("in-memory run recorded no events")
	}

	dir := t.TempDir()
	spec.Run.Trace = "stream"
	spec.Run.TraceFile = filepath.Join(dir, "golden.amtr")
	streamed, err := scenario.Run(spec)
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	if got := streamed.Trials[0].Result.Solved; got != inMem.Trials[0].Result.Solved {
		t.Fatalf("streamed Solved = %v, in-memory %v", got, inMem.Trials[0].Result.Solved)
	}

	path := scenario.TraceFilePath(spec.Run.TraceFile, streamed.Trials[0].Seed)
	got := readTraceFile(t, path).String()
	if got != want {
		t.Fatalf("disk trace differs from in-memory trace\ndisk:\n%s\nmemory:\n%s", got, want)
	}
}

// TestTraceFilePerTrialFiles: a multi-trial run must produce one stream per
// trial, named by the spliced trial seed, each decoding cleanly.
func TestTraceFilePerTrialFiles(t *testing.T) {
	spec, ok := goldenSpec("sync")
	if !ok {
		t.Fatal("no golden sync scenario")
	}
	spec.Run.Check = false
	spec.Run.Trials = 3
	dir := t.TempDir()
	spec.Run.Trace = "stream"
	spec.Run.TraceFile = filepath.Join(dir, "multi.amtr")

	rep, err := scenario.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, trial := range rep.Trials {
		path := scenario.TraceFilePath(spec.Run.TraceFile, trial.Seed)
		if decoded := readTraceFile(t, path); decoded.Len() == 0 {
			t.Fatalf("trial seed %d: empty trace at %s", trial.Seed, path)
		}
	}
	files, err := filepath.Glob(filepath.Join(dir, "multi.s*.amtr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 {
		t.Fatalf("found %d trace files, want 3: %v", len(files), files)
	}
}

func TestTraceFilePath(t *testing.T) {
	for _, tc := range []struct {
		pattern string
		seed    int64
		want    string
	}{
		{"out.amtr", 3, "out.s3.amtr"},
		{"dir/run.amtr", 12, "dir/run.s12.amtr"},
		{"bare", 5, "bare.s5"},
		{"neg.amtr", -1, "neg.s-1.amtr"},
	} {
		if got := scenario.TraceFilePath(tc.pattern, tc.seed); got != tc.want {
			t.Errorf("TraceFilePath(%q, %d) = %q, want %q", tc.pattern, tc.seed, got, tc.want)
		}
	}
}

func TestTraceFileValidation(t *testing.T) {
	spec, ok := goldenSpec("sync")
	if !ok {
		t.Fatal("no golden sync scenario")
	}
	spec.Run.TraceFile = "out.amtr"
	spec.Run.Trace = "stream"

	spec.Run.Check = true
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "check") {
		t.Fatalf("trace_file+check: err = %v, want check incompatibility", err)
	}

	spec.Run.Check = false
	if err := spec.Validate(); err != nil {
		t.Fatalf("trace=stream with trace_file rejected: %v", err)
	}

	// The bare key no longer selects streaming; the error names the
	// replacement.
	spec.Run.Trace = ""
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), `"trace": "stream"`) {
		t.Fatalf("bare trace_file: err = %v, want a migration error naming \"trace\": \"stream\"", err)
	}
}

// TestSweepProgress checks the per-trial progress callback contract: each
// cumulative count in 1..total delivered exactly once, concurrently safe,
// and purely observational (reports identical with and without it).
func TestSweepProgress(t *testing.T) {
	mkSpec := func(n int) scenario.Spec {
		return scenario.Spec{
			Topology:  scenario.TopologySpec{Name: "line", Params: topology.Params{"n": float64(n)}},
			Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 1},
			Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
			Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 1}},
			Run:       scenario.RunSpec{Seed: 1, Trials: 3},
		}
	}
	specs := []scenario.Spec{mkSpec(4), mkSpec(6)}

	var mu sync.Mutex
	var counts []int
	withProgress, err := scenario.SweepWithOptions(specs, scenario.SweepOptions{
		Parallelism: 2,
		Progress: func(done int) {
			mu.Lock()
			counts = append(counts, done)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	total := 6
	if len(counts) != total {
		t.Fatalf("progress called %d times, want %d", len(counts), total)
	}
	sort.Ints(counts)
	for i, c := range counts {
		if c != i+1 {
			t.Fatalf("progress counts = %v, want each of 1..%d exactly once", counts, total)
		}
	}

	plain, err := scenario.Sweep(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		for j := range plain[i].Trials {
			a, b := plain[i].Trials[j].Result, withProgress[i].Trials[j].Result
			if a.Solved != b.Solved || a.CompletionTime != b.CompletionTime || a.Steps != b.Steps {
				t.Fatalf("spec %d trial %d: results differ with progress callback", i, j)
			}
		}
	}
}
