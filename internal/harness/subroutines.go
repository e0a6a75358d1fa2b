package harness

import (
	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// runMIS executes the standalone MIS subroutine and returns the resulting
// set, the time of the last membership decision, the schedule length in
// rounds, and the simulation events the run took.
func runMIS(o Options, d *topology.Dual, c float64, seed int64) (set []graph.NodeID, decideAt sim.Time, totalRounds int, steps uint64) {
	cfg := core.MISConfig{N: d.N(), C: c}
	autos := core.NewMISFleet(d.N(), cfg)
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      o.Fack,
		Fprog:     o.Fprog,
		Scheduler: &sched.Slot{},
		Mode:      mac.Enhanced,
		Seed:      seed,
	}, autos)
	eng.Watch(func(ev sim.TraceEvent) {
		if ev.Kind == "mis-join" || ev.Kind == "mis-covered" {
			decideAt = ev.At
		}
	})
	eng.Start()
	eng.Sim().SetHorizon(sim.Time(cfg.Rounds()+2) * o.Fprog)
	eng.Run()
	for i, a := range autos {
		if a.(*core.MISNode).InMIS() {
			set = append(set, graph.NodeID(i))
		}
	}
	return set, decideAt, cfg.Rounds(), eng.Sim().Steps()
}

// runStages executes a full FMMB run and reports per-stage usage:
// gather periods until every message is MIS-owned vs. the gather budget,
// and spread rounds until full dissemination vs. the spread budget, plus the
// simulation events the run took.
func runStages(o Options, d *topology.Dual, c float64, a core.Assignment, seed int64) (gatherUsed, gatherBudget, spreadUsed, spreadBudget float64, steps uint64) {
	cfg := core.FMMBConfig{N: d.N(), K: a.K(), D: d.G.Diameter(), C: c}
	rc := cfg.Resolved()
	autos := core.NewFMMBFleet(d.N(), cfg)

	gatherStart := sim.Time(rc.MIS.Rounds()) * o.Fprog
	spreadStart := gatherStart + sim.Time(3*rc.GatherPeriods)*o.Fprog

	var lastOwn, lastDeliver sim.Time
	ownCount := make(map[core.Msg]bool, a.K())
	eng := mac.NewEngine(mac.Config{
		Dual:      d,
		Fack:      o.Fack,
		Fprog:     o.Fprog,
		Scheduler: &sched.Slot{},
		Mode:      mac.Enhanced,
		Seed:      seed,
	}, autos)
	eng.Watch(func(ev sim.TraceEvent) {
		switch ev.Kind {
		case "gather-own":
			m := ev.Value().(core.Msg)
			if !ownCount[m] {
				ownCount[m] = true
				lastOwn = ev.At
			}
		case core.DeliverKind:
			lastDeliver = ev.At
		}
	})
	eng.Start()
	for v, msgs := range a {
		for _, m := range msgs {
			eng.Arrive(mac.NodeID(v), m.Payload(), 0)
		}
	}
	eng.Sim().SetHorizon(sim.Time(rc.Rounds()+2) * o.Fprog)
	eng.Sim().SetStepLimit(1 << 62)
	eng.Run()

	// Messages injected directly at MIS nodes are owned from the start;
	// only gather hand-overs move lastOwn.
	if lastOwn > gatherStart {
		gatherUsed = float64(lastOwn-gatherStart) / float64(3*o.Fprog)
	}
	gatherBudget = float64(rc.GatherPeriods)
	if lastDeliver > spreadStart {
		spreadUsed = float64(lastDeliver-spreadStart) / float64(o.Fprog)
	}
	spreadBudget = float64(rc.SpreadPhases * rc.SpreadPeriods * 3)
	return gatherUsed, gatherBudget, spreadUsed, spreadBudget, eng.Sim().Steps()
}
