package scenario

import (
	"fmt"
	"strings"
	"testing"

	"amac/internal/topology"
)

// pinnedSpecs returns multi-trial pinned-topology scenarios covering both
// registered algorithms (bmmb's map-backed fleet, fmmb's staged
// timer/abort automaton with its MIS substate) and randomized scheduling,
// so arena plus fleet reuse is exercised across resets, not just on the
// first trial.
func pinnedSpecs(trials int) []Spec {
	return []Spec{
		{
			Name: "bmmb-pinned",
			Topology: TopologySpec{
				Name:   "rline",
				Params: topology.Params{"n": 14, "r": 2, "p": 0.6},
				Seed:   7,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 3},
			Algorithm: AlgorithmSpec{Name: "bmmb"},
			Scheduler: SchedulerSpec{Name: "sync", Params: topology.Params{"rel": 0.5}},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 3, Trials: trials, Check: true},
		},
		{
			Name: "fmmb-pinned",
			Topology: TopologySpec{
				Name:   "rline",
				Params: topology.Params{"n": 10, "r": 2, "p": 0.5},
				Seed:   5,
			},
			Workload:  WorkloadSpec{Kind: WorkloadSingleton, K: 2},
			Algorithm: AlgorithmSpec{Name: "fmmb"},
			Model:     ModelSpec{Fprog: 10, Fack: 200},
			Run:       RunSpec{Seed: 2, Trials: trials, Check: true},
		},
	}
}

// coldReports runs every (spec, seed) of a grid through Trial — a fresh
// topology, fleet and engine per trial — and returns the reports a sweep
// would: the reference the warm sweep path is compared against.
func coldReports(t *testing.T, specs []Spec) []*Report {
	t.Helper()
	out := make([]*Report, len(specs))
	for i, s := range specs {
		r := s.WithDefaults()
		out[i] = &Report{Spec: r}
		for tr := 0; tr < r.Run.Trials; tr++ {
			res, err := Trial(s, r.Run.Seed+int64(tr))
			if err != nil {
				t.Fatalf("%s: cold trial %d: %v", s.Name, tr, err)
			}
			out[i].Trials = append(out[i].Trials, res)
		}
	}
	return out
}

// reportFingerprint renders every per-trial scalar outcome of a sweep.
func reportFingerprint(reports []*Report) string {
	out := ""
	for _, r := range reports {
		for _, tr := range r.Trials {
			res := tr.Result
			ok := res.Report == nil || res.Report.OK()
			out += fmt.Sprintf("%s seed=%d net=%s sched=%s solved=%v t=%d end=%d del=%d req=%d bcasts=%d steps=%d check=%v\n",
				r.Spec.Name, tr.Seed, tr.Built.Dual.Name, tr.SchedulerName, res.Solved, res.CompletionTime,
				res.End, res.Delivered, res.Required, res.Broadcasts, res.Steps, ok)
		}
	}
	return out
}

// TestArenaSweepMatchesColdTrials pins the acceptance guarantee of the run-
// arena subsystem at the scenario layer: repeated trials of pinned
// topologies produce the same results as one cold Trial per seed, at
// sequential and parallel pool sizes alike.
func TestArenaSweepMatchesColdTrials(t *testing.T) {
	specs := pinnedSpecs(5)
	want := reportFingerprint(coldReports(t, specs))
	for _, tc := range []SweepOptions{
		{Parallelism: 1},
		{Parallelism: 3},
	} {
		reports, err := SweepWithOptions(specs, tc)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if got := reportFingerprint(reports); got != want {
			t.Fatalf("sweep with %+v diverged from the cold trials:\ngot:\n%s\nwant:\n%s", tc, got, want)
		}
	}
}

// TestRunSpecNoArena pins that the removed run-arena escape hatch is gone
// from the spec surface: strict Parse rejects the "no_arena" key as an
// unknown field, and scenario.Run, whose warm path is now the only one,
// matches one cold Trial per seed.
func TestRunSpecNoArena(t *testing.T) {
	_, err := Parse([]byte(`{"topology": {"name": "line"}, "run": {"no_arena": true}}`))
	if err == nil || !strings.Contains(err.Error(), `unknown field "no_arena"`) {
		t.Fatalf("no_arena: err = %v, want an unknown-field error", err)
	}
	spec := pinnedSpecs(4)[0]
	warm, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := reportFingerprint([]*Report{warm})
	c := reportFingerprint(coldReports(t, []Spec{spec}))
	if w != c {
		t.Fatalf("Run diverged from the cold trials:\nwarm:\n%s\ncold:\n%s", w, c)
	}
}
