package main

import (
	"fmt"
	"math"

	"amac/internal/scenario"
	"amac/internal/topology"
)

// workers is the trial-pool size and shard count every generated spec
// asks for. It is fixed rather than read from the machine so that a seed
// always generates the same scenario file.
const workers = 2

// workload is one named benchmark input: a scenario family whose concrete
// spec is a pure function of the benchmark seed.
type workload struct {
	name string
	spec func(runSeed, topoSeed int64) scenario.Spec
}

// workloads lists the benchmark's inputs. README.md records why each was
// chosen and which layers it loads or bypasses; BENCHMARK.json at the
// repository root names them.
var workloads = []workload{
	{
		name: "rgg-bmmb-large",
		spec: func(runSeed, topoSeed int64) scenario.Spec {
			// Side scales with sqrt(n) so the density (and degree) matches
			// the README's large-n rgg (n=10^5, side 82.6).
			const n = 3000
			return scenario.Spec{
				Name: "rgg-bmmb-large",
				Topology: scenario.TopologySpec{
					Name:   "rgg",
					Params: topology.Params{"n": n, "side": 26.1 * math.Sqrt(n/1e4), "c": 1.6, "p": 0.5},
					Seed:   topoSeed,
				},
				Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 2},
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Run:       scenario.RunSpec{Seed: runSeed, Trials: 1, Parallelism: workers, Trace: "off"},
			}
		},
	},
	{
		name: "rgg-fmmb-trials",
		spec: func(runSeed, _ int64) scenario.Spec {
			return scenario.Spec{
				Name: "rgg-fmmb-trials",
				Topology: scenario.TopologySpec{
					Name:       "rgg",
					Params:     topology.Params{"n": 400, "side": 9.5, "c": 1.6, "p": 0.5},
					SeedFactor: 7919,
				},
				Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 8},
				Algorithm: scenario.AlgorithmSpec{Name: "fmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "slot"},
				Run:       scenario.RunSpec{Seed: runSeed, Trials: 4, Parallelism: workers, Trace: "off"},
			}
		},
	},
	{
		name: "contention-checked-sweep",
		spec: func(runSeed, _ int64) scenario.Spec {
			// The network is part of the workload, like a checked-in
			// scenario file: the seed varies only the 160 trials' execution
			// randomness, so one network's quirks cannot make runs at
			// different seeds incomparable.
			const topoSeed = 1
			return scenario.Spec{
				Name: "contention-checked-sweep",
				Topology: scenario.TopologySpec{
					Name:   "rgg",
					Params: topology.Params{"n": 150, "side": 7.7, "c": 1.6, "p": 0.5},
					Seed:   topoSeed,
				},
				Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 8},
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
				Run:       scenario.RunSpec{Seed: runSeed, Trials: 160, Parallelism: workers, Check: true},
			}
		},
	},
	{
		name: "pods-sharded-stream",
		spec: func(runSeed, topoSeed int64) scenario.Spec {
			return scenario.Spec{
				Name: "pods-sharded-stream",
				Topology: scenario.TopologySpec{
					Name:   "pods",
					Params: topology.Params{"n": 40000, "k": 16, "r": 2, "p": 0.5},
					Seed:   topoSeed,
				},
				Workload:  scenario.WorkloadSpec{Kind: scenario.WorkloadSingleton, K: 64},
				Algorithm: scenario.AlgorithmSpec{Name: "bmmb"},
				Scheduler: scenario.SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
				Run: scenario.RunSpec{Seed: runSeed, Trials: 1, Parallelism: workers, Shards: workers,
					Trace: "stream", TraceFile: "pods-sharded-stream.amtr"},
			}
		},
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// specFor generates the workload's scenario for a benchmark seed. The run
// and topology seeds are hashed from it, so neighbouring benchmark seeds
// give unrelated networks and executions, and both stay positive and far
// below the int64 range the spec validator guards (unpinned trials multiply
// the run seed by the topology seed factor).
func (w workload) specFor(seed int64) scenario.Spec {
	return w.spec(deriveSeed(seed, 1), deriveSeed(seed, 2))
}

// deriveSeed maps (seed, stream) to a seed in [1, 2^31) with a splitmix64
// finalizer.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%(1<<31-1)) + 1
}
