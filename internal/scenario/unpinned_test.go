package scenario

import (
	"fmt"
	"testing"

	"amac/internal/topology"
)

// unpinnedSpecs returns multi-trial scenarios over randomized families with
// no pinned seed, so every trial draws a fresh network: the regime the
// unpinned trialWorker (workspace + rebound runner) serves.
func unpinnedSpecs(trials int) []Spec {
	return []Spec{
		{
			Name: "rgg-unpinned",
			Topology: TopologySpec{
				Name:   "rgg",
				Params: topology.Params{"n": 14, "side": 2.4, "c": 1.6, "p": 0.5},
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 3, Trials: trials, Check: true},
		},
		{
			Name: "crosstalk-unpinned",
			Topology: TopologySpec{
				Name:       "grid-crosstalk",
				Params:     topology.Params{"rows": 3, "cols": 4, "r": 2, "p": 0.5},
				SeedFactor: 7717,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "contention", Params: topology.Params{"rel": 0.5}},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 2, Trials: trials, Check: true},
		},
	}
}

// trialSnapshot renders everything observable about one executed trial —
// network name, scalar outcome and the full trace text — for byte-for-byte
// comparison. It must be taken before the worker's next trial recycles the
// pooled engine.
func trialSnapshot(tr *TrialResult) string {
	res := tr.Result
	ok := res.Report == nil || res.Report.OK()
	return fmt.Sprintf("net=%s sched=%s solved=%v t=%d end=%d del=%d req=%d bcasts=%d steps=%d check=%v\n%s",
		tr.Built.Dual.Name, tr.SchedulerName, res.Solved, res.CompletionTime, res.End,
		res.Delivered, res.Required, res.Broadcasts, res.Steps, ok,
		res.Trace.String())
}

// TestUnpinnedWarmMatchesCold is the tentpole's acceptance guarantee at
// trace granularity: for randomized families across a run of seeds, a trial
// executed on the warm per-worker state — workspace-built topology, rebound
// runner, recycled engine — is byte-identical to the cold Trial path,
// including the full event trace of every seed.
func TestUnpinnedWarmMatchesCold(t *testing.T) {
	for _, spec := range unpinnedSpecs(1) {
		t.Run(spec.Name, func(t *testing.T) {
			r := spec.WithDefaults()
			warm := &trialWorker{spec: r}
			for seed := int64(1); seed <= 6; seed++ {
				cold, err := Trial(spec, seed)
				if err != nil {
					t.Fatalf("cold trial seed %d: %v", seed, err)
				}
				want := trialSnapshot(cold)
				tr, err := warm.trial(seed, false)
				if err != nil {
					t.Fatalf("warm trial seed %d: %v", seed, err)
				}
				if got := trialSnapshot(tr); got != want {
					t.Fatalf("warm trial seed %d diverged from cold:\nwarm:\n%.400s\ncold:\n%.400s",
						seed, got, want)
				}
			}
		})
	}
}

// TestUnpinnedSweepMatchesNoArena pins the guarantee at the scenario
// surface: sweeps of unpinned specs produce identical reports with warm
// reuse on and off, sequential and parallel alike.
func TestUnpinnedSweepMatchesNoArena(t *testing.T) {
	specs := unpinnedSpecs(5)
	fingerprint := func(reports []*Report) string {
		out := ""
		for _, r := range reports {
			for _, tr := range r.Trials {
				res := tr.Result
				ok := res.Report == nil || res.Report.OK()
				out += fmt.Sprintf("%s seed=%d net=%s solved=%v t=%d end=%d del=%d req=%d bcasts=%d steps=%d check=%v\n",
					r.Spec.Name, tr.Seed, tr.Built.Dual.Name, res.Solved, res.CompletionTime,
					res.End, res.Delivered, res.Required, res.Broadcasts, res.Steps, ok)
			}
		}
		return out
	}
	baseline, err := SweepWithOptions(specs, SweepOptions{Parallelism: 1, NoArena: true})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(baseline)
	for _, tc := range []SweepOptions{
		{Parallelism: 1},
		{Parallelism: 3},
	} {
		reports, err := SweepWithOptions(specs, tc)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := fingerprint(reports); got != want {
			t.Fatalf("unpinned sweep with %+v diverged from the cold baseline:\ngot:\n%s\nwant:\n%s", tc, got, want)
		}
	}
}

// TestDeterministicFamilyTakesWarmPath pins the pinning bugfix: a
// deterministic family with no seed at all (ring) must be treated as pinned
// — one shared network instance, warm engine reuse across trials — and stay
// byte-identical to the cold path.
func TestDeterministicFamilyTakesWarmPath(t *testing.T) {
	spec := Spec{
		Topology:  TopologySpec{Name: "ring", Params: topology.Params{"n": 16}},
		Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
		Algorithm: AlgorithmSpec{Name: "bmmb"},
		Run:       RunSpec{Seed: 1, Trials: 4},
	}
	if !topologyPinned(spec.WithDefaults()) {
		t.Fatal("seedless deterministic family not treated as pinned")
	}
	warm, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Trials[0].Built != warm.Trials[1].Built {
		t.Fatal("trials of a deterministic family did not share one built instance")
	}
	if warm.Trials[0].Result.Engine != warm.Trials[1].Result.Engine {
		t.Fatal("trials of a deterministic family did not reuse the warm engine")
	}

	cold := spec
	cold.Run.NoArena = true
	coldRep, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm.Trials {
		w, c := warm.Trials[i].Result, coldRep.Trials[i].Result
		if w.CompletionTime != c.CompletionTime || w.Steps != c.Steps || w.Delivered != c.Delivered {
			t.Fatalf("trial %d diverged between warm and cold deterministic-family runs", i)
		}
	}
}

// TestLargeTrialSeedsStayDistinct is the regression test for the lossy
// seed plumbing: trial seeds above 2^53 used to be rounded through a
// float64 parameter, colliding adjacent trials onto one network. The spec
// below would have drawn the same rgg instance for both trials.
func TestLargeTrialSeedsStayDistinct(t *testing.T) {
	spec := unpinnedSpecs(2)[0]
	spec.Run.Seed = int64(1) << 53 // float64(2^53) == float64(2^53 + 1)
	if err := spec.Validate(); err != nil {
		t.Fatalf("large run seed rejected: %v", err)
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep.Trials[0].Built.Dual, rep.Trials[1].Built.Dual
	if fmt.Sprint(a.G.Edges()) == fmt.Sprint(b.G.Edges()) &&
		fmt.Sprint(a.GPrime.Edges()) == fmt.Sprint(b.GPrime.Edges()) {
		t.Fatal("adjacent trial seeds above 2^53 drew the same network — the seed is being rounded through a float64")
	}

	// A pinned seed beyond 2^53 must validate and thread exactly too.
	pinned := spec
	pinned.Run.Seed = 1
	pinned.Topology.Seed = (int64(1) << 53) + 1
	if err := pinned.Validate(); err != nil {
		t.Fatalf("pinned seed beyond 2^53 rejected: %v", err)
	}
}

// TestUnpinnedEdgeTrialsBuiltStable pins the stable-storage contract of
// TrialResult.Built: the first and last trials of an unpinned warm run keep
// their own networks after the sweep (amacsim's report header reads the
// first, bound formulas the last) instead of aliasing recycled workspace
// graphs overwritten by later trials.
func TestUnpinnedEdgeTrialsBuiltStable(t *testing.T) {
	spec := unpinnedSpecs(5)[0]
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, len(rep.Trials) - 1} {
		want, err := BuildTopology(spec, rep.Trials[i].Seed)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(rep.Trials[i].Built.Dual.G.Edges()) != fmt.Sprint(want.Dual.G.Edges()) {
			t.Fatalf("trial %d's Built was recycled by a later trial on its worker", i)
		}
	}
}
