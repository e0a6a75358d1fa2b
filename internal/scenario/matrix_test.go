package scenario_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"amac/internal/scenario"
	"amac/internal/topology"
)

// matrixSpecs are the option-matrix networks: a deterministic line (pinned
// by its family), a fresh rgg draw per trial (unpinned: the workspace path),
// and a seed-pinned pods network whose G′ falls apart into two components,
// so shards >= 1 genuinely decomposes it.
func matrixSpecs() []scenario.Spec {
	base := func(name string, topo scenario.TopologySpec, k int) scenario.Spec {
		return scenario.Spec{
			Name:     name,
			Topology: topo,
			Workload: scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: k},
			Model:    scenario.ModelSpec{Fprog: 10, Fack: 200},
			Run:      scenario.RunSpec{Seed: 3, Trials: 2},
		}
	}
	return []scenario.Spec{
		base("line", scenario.TopologySpec{Name: "line", Params: topology.Params{"n": 10}}, 2),
		base("rgg", scenario.TopologySpec{Name: "rgg",
			Params: topology.Params{"n": 14, "side": 2.4, "c": 1.6, "p": 0.5}}, 2),
		base("pods", scenario.TopologySpec{Name: "pods",
			Params: topology.Params{"n": 16, "k": 2, "r": 2, "p": 0.5}, Seed: 5}, 2),
	}
}

// matrixObs is what one executed trial shows: its scalar outcome and, when
// it is still readable, its trace rendered as text ("" when it is not).
type matrixObs struct {
	solved      bool
	delivered   int
	completion  int64
	steps       uint64
	trace       string
	traceStored bool
}

func (o matrixObs) String() string {
	return fmt.Sprintf("solved=%v delivered=%d completion=%d steps=%d",
		o.solved, o.delivered, o.completion, o.steps)
}

// TestOptionMatrix runs every combination of network × algorithm × trace
// mode × shards × removed regions knob × execution path (warm scenario.Run,
// cold scenario.Trial) that Validate accepts, and requires each to reach the
// paper's answer: Solved, with Delivered, CompletionTime and Steps equal to
// the cold memory-trace run of the same executor class (shards 0 is the
// single-engine class, shards >= 1 the decomposed one). Traced modes must
// also reproduce that run's trace byte for byte — the streamed file after
// decoding it with sim.TraceReader. A mode that silently stops delivering
// (trace off once did, under the removed windowed executor) fails here.
func TestOptionMatrix(t *testing.T) {
	dir := t.TempDir()
	accepted := 0
	for _, spec := range matrixSpecs() {
		for _, alg := range []string{"bmmb", "fmmb"} {
			spec := spec
			spec.Algorithm = scenario.AlgorithmSpec{Name: alg}
			seeds := []int64{spec.Run.Seed, spec.Run.Seed + 1}
			var refs [2][]matrixObs // by executor class, then seed
			for class := range refs {
				ref := spec
				ref.Run.Shards = class
				for _, seed := range seeds {
					tr, err := scenario.Trial(ref, seed)
					if err != nil {
						t.Fatalf("%s/%s reference (shards %d) seed %d: %v", spec.Name, alg, class, seed, err)
					}
					refs[class] = append(refs[class], observe(t, tr, "", true))
				}
			}
			for _, shards := range []int{0, 1, 2} {
				for _, mode := range []string{"memory", "stream", "off"} {
					for _, regions := range []int{0, 2} {
						for _, warm := range []bool{true, false} {
							s := spec
							s.Run.Shards, s.Run.Trace, s.Run.Regions = shards, mode, regions
							name := fmt.Sprintf("%s/%s/shards=%d/trace=%s/regions=%d/warm=%v",
								spec.Name, alg, shards, mode, regions, warm)
							if mode == "stream" {
								s.Run.TraceFile = filepath.Join(dir, fmt.Sprintf("%s-%s-%d-%v.amtr", spec.Name, alg, shards, warm))
							}
							if err := s.Validate(); err != nil {
								continue
							}
							accepted++
							got := runMatrixCase(t, name, s, seeds, warm)
							for i, o := range got {
								want := refs[min(shards, 1)][i]
								if !o.solved {
									t.Errorf("%s seed %d: unsolved (%v)", name, seeds[i], o)
									continue
								}
								if o.String() != want.String() {
									t.Errorf("%s seed %d: %v, memory-trace reference %v", name, seeds[i], o, want)
								}
								if o.traceStored && o.trace != want.trace {
									t.Errorf("%s seed %d: trace differs from the memory-trace reference\ngot:\n%.300s\nwant:\n%.300s",
										name, seeds[i], o.trace, want.trace)
								}
							}
						}
					}
				}
			}
		}
	}
	// Every combination without the removed regions knob is legal; none
	// with it is.
	if want := 3 * 2 * 3 * 3 * 2; accepted != want {
		t.Fatalf("Validate accepted %d combinations, want %d", accepted, want)
	}
}

// runMatrixCase executes both seeds of s on the warm path (one scenario.Run
// of both trials) or the cold one (a scenario.Trial per seed).
func runMatrixCase(t *testing.T, name string, s scenario.Spec, seeds []int64, warm bool) []matrixObs {
	t.Helper()
	var trials []*scenario.TrialResult
	if warm {
		rep, err := scenario.Run(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		trials = rep.Trials
	} else {
		for _, seed := range seeds {
			tr, err := scenario.Trial(s, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			trials = append(trials, tr)
		}
	}
	out := make([]matrixObs, len(trials))
	for i, tr := range trials {
		// A warm run on one engine (shards 0, or a G′-connected network at
		// any shards value) leaves its memory trace in the pooled engine,
		// which the worker's next trial recycles: only the last is intact.
		// Decomposed runs own their merged trace and keep no engine.
		intact := !warm || tr.Result.Engine == nil || i == len(trials)-1
		out[i] = observe(t, tr, s.Run.TraceFile, intact)
	}
	return out
}

// observe records a trial's outcome and its trace: the in-memory one when
// intact, or the decoded stream when the trial wrote to a trace file.
func observe(t *testing.T, tr *scenario.TrialResult, traceFile string, intact bool) matrixObs {
	t.Helper()
	res := tr.Result
	o := matrixObs{solved: res.Solved, delivered: res.Delivered, completion: int64(res.CompletionTime), steps: res.Steps}
	switch {
	case traceFile != "":
		o.trace = readTraceFile(t, scenario.TraceFilePath(traceFile, tr.Seed)).String()
		o.traceStored = true
	case res.Trace != nil && intact:
		o.trace = res.Trace.String()
		o.traceStored = true
	}
	if o.traceStored && o.trace == "" {
		t.Fatalf("seed %d: empty trace", tr.Seed)
	}
	return o
}
