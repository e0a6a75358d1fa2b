package scenario

import (
	"testing"

	"amac/internal/core"
	"amac/internal/topology"
)

// warmPinnedSpec is the allocation-ceiling workload: a pinned r-restricted
// line under randomized reliability, traced off so the measurement isolates
// the simulation hot path the way sweeps run it.
func warmPinnedSpec() Spec {
	return Spec{
		Name: "alloc-pinned",
		Topology: TopologySpec{
			Name:   "rline",
			Params: topology.Params{"n": 32, "r": 2, "p": 0.6},
			Seed:   7,
		},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Model:     ModelSpec{Fprog: 10, Fack: 200},
		Run:       RunSpec{Seed: 1, Trials: 2, Trace: "off"},
	}.WithDefaults()
}

// TestWarmTrialAllocationCeiling is the tentpole's acceptance guard: once a
// pinned-topology worker is warm — fleet parked, runner arena filled,
// scheduler cached — each further trial must run in at most a handful of
// allocations (the trial's own Result record and residual per-run scraps),
// with no per-event or per-broadcast allocation left. Typed payloads killed
// the per-event boxing; fleet, engine, node states, instances, delivery
// rows and the scheduler all come from warm storage.
func TestWarmTrialAllocationCeiling(t *testing.T) {
	const ceiling = 6
	r := warmPinnedSpec()
	built, err := buildTopology(r, r.Run.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w := &trialWorker{spec: r, pin: &pinnedDraw{built: built, proto: core.NewRunner(built.Dual)}}
	run := func() {
		tr, err := w.trial(r.Run.Seed+1, false)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Result.Solved {
			t.Fatalf("trial not solved: %d/%d", tr.Result.Delivered, tr.Result.Required)
		}
	}
	run() // warm the worker: fleet, arena, scheduler cache
	allocs := testing.AllocsPerRun(50, run)
	if allocs > ceiling {
		t.Fatalf("warm pinned trial allocates %.0f times per run, ceiling %d — construction crept back into the warm path", allocs, ceiling)
	}
}

// TestUnpinnedWarmTrialAllocationBound is the unpinned counterpart: every
// trial draws a fresh topology into the worker's workspace and refits a
// pooled fleet, so per-trial allocations cannot be zero — but they must stay
// bounded by the trial's own record-keeping (result, trial record, residual
// per-draw scraps), not scale with events, broadcasts, or rejected draws.
// Plan interning (planFor), pooled BFS scratch in internal/graph, and the
// cached scheduler description brought the measured cost from ~185 to ~22;
// the bound is calibrated ~2x above that so only a structural regression
// (per-event boxing, lost fleet reuse, graph rebuilds outside the workspace,
// per-probe BFS allocation) trips it.
func TestUnpinnedWarmTrialAllocationBound(t *testing.T) {
	const bound = 50
	r := Spec{
		Name: "alloc-unpinned",
		Topology: TopologySpec{
			Name:   "rgg",
			Params: topology.Params{"n": 24, "side": 3.6, "c": 1.6, "p": 0.5},
		},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
		Model:     ModelSpec{Fprog: 10, Fack: 200},
		Run:       RunSpec{Seed: 1, Trials: 2, Trace: "off"},
	}.WithDefaults()
	w := &trialWorker{spec: r}
	seed := r.Run.Seed
	run := func() {
		seed++
		tr, err := w.trial(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Result.Solved {
			t.Fatalf("trial not solved: %d/%d", tr.Result.Delivered, tr.Result.Required)
		}
	}
	run() // warm the worker: workspace, runner, scheduler, fleet pool
	allocs := testing.AllocsPerRun(30, run)
	if allocs > bound {
		t.Fatalf("warm unpinned trial allocates %.0f times per run, bound %d", allocs, bound)
	}
}
