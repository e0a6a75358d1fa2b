package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"amac/internal/check"
	"amac/internal/core"
	"amac/internal/mac"
	"amac/internal/scenario"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// mode selects how much instrumentation an in-process run carries.
type mode int

const (
	// plain runs the undecorated pipeline: the untraced in-process run the
	// traced run's overhead is measured against.
	plain mode = iota
	// counting decorates the layers to count calls and receives, but never
	// reads the clock inside the simulation.
	counting
	// traced decorates the layers and times every call into them.
	traced
)

// trialStat is the simulated outcome of one trial: what the amacsim report
// prints, and what every run of the same spec must reproduce exactly.
// Broadcasts is only printed for single-trial runs.
type trialStat struct {
	Seed       int64  `json:"seed"`
	Solved     bool   `json:"solved"`
	Completion int64  `json:"completion"`
	Delivered  int    `json:"delivered"`
	Required   int    `json:"required"`
	Steps      uint64 `json:"steps"`
	Broadcasts int    `json:"broadcasts"`
}

// network is the report header: the first trial's network.
type network struct {
	N         int `json:"n"`
	Diameter  int `json:"diameter"`
	Edges     int `json:"edges"`
	GreyEdges int `json:"grey_edges"`
}

// phases are the wall times of the pipeline stages of an in-process run,
// summed over its trials. Every stage is timed whether or not the workload
// gives it work, so a bypassed stage reads as the nanoseconds of its empty
// branch.
type phases struct {
	topology, approxDiameter, runnerNew, fleet, schedBuild time.Duration
	run, checkAll, checkMMB, traceClose, diameter, decode  time.Duration
}

// inproc is the outcome of one in-process run of a spec.
type inproc struct {
	net    network
	trials []trialStat
	failed int // trials unsolved or with a model-check or MMB violation

	ph   phases
	wall time.Duration // the whole pipeline except trace decoding

	// Decorator totals, in counting and traced modes.
	layers tracer
	root   time.Duration // time spent inside decorated calls
	shards int           // engine timelines: G′ components when sharded

	allocs, allocBytes uint64 // runtime.MemStats deltas around Runner.Run

	traceBytes    int64 // AMTR bytes written (stream workloads)
	traceEvents   int   // events decoded back from those files
	traceDelivers int   // deliver events among them
}

// execute runs every trial of spec in-process on one goroutine, the way
// scenario.Run drives core.Runner: one runner rebound to each topology
// draw, fleets and schedulers reset between trials where they support it,
// the report's exact diameter of the first trial's network last. Set-up,
// checking and trace I/O happen here, outside Runner.Run, so each gets its
// own span. Stream-mode trace files go to dir and are decoded, counted and
// deleted before execute returns.
func execute(spec scenario.Spec, m mode, dir string) (*inproc, error) {
	start := time.Now()
	p, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	r, alg := p.r, p.alg
	traceMode, err := r.Run.TraceMode()
	if err != nil {
		return nil, err
	}
	pinned := scenario.TopologyPinned(r)
	sharded := r.Run.Shards >= 1
	fprog, fack := sim.Time(r.Model.Fprog), sim.Time(r.Model.Fack)
	stepLimit := r.Run.StepLimit
	if stepLimit == 0 {
		stepLimit = alg.StepLimit
	}

	out := &inproc{}
	var (
		built, first *topology.Built
		workload     *core.Workload
		env          sched.Env
		horizon      sim.Time
		rn           *core.Runner
		fleet        []mac.Automaton
		inner        mac.Scheduler
		ms           runtime.MemStats
	)
	for i := 0; i < r.Run.Trials; i++ {
		seed := r.Run.Seed + int64(i)
		if built == nil || !pinned {
			topoSeed := seed
			if pinned {
				topoSeed = r.Run.Seed
			}
			t0 := time.Now()
			if built, err = scenario.BuildTopology(r, topoSeed); err != nil {
				return nil, err
			}
			t1 := time.Now()
			// The horizon input of the runner and of FMMB's schedule;
			// memoized, so the later calls inside the run are free.
			built.Dual.G.ApproxDiameter(8, 1)
			t2 := time.Now()
			if rn == nil {
				rn = core.NewRunner(built.Dual)
			} else {
				rn.Rebind(built.Dual)
			}
			out.ph.topology += t1.Sub(t0)
			out.ph.approxDiameter += t2.Sub(t1)
			out.ph.runnerNew += time.Since(t2)
			if workload, err = scenario.ResolveWorkload(r, built); err != nil {
				return nil, err
			}
			env = p.schedEnv(built, workload)
			horizon = sim.Time(r.Run.Horizon)
			if horizon == 0 && alg.Horizon != nil {
				horizon = alg.Horizon(built.Dual, workload.K(), fprog, r.Algorithm.Params)
			}
			if first == nil {
				first = built
			}
		}

		// Fleet: like scenario's warm paths, reset the previous trial's
		// automata (refitted to a fresh draw when unpinned), or build anew.
		t0 := time.Now()
		reuse := fleet != nil && len(fleet) == built.Dual.N() && resettable(fleet)
		if reuse && !pinned && alg.Refit != nil {
			reuse = alg.Refit(fleet, built.Dual, workload.K(), r.Algorithm.Params)
		}
		if reuse {
			for _, a := range fleet {
				a.(mac.Resettable).Reset()
			}
		} else if fleet, err = alg.NewFleet(built.Dual, workload.K(), r.Algorithm.Params); err != nil {
			return nil, err
		}
		out.ph.fleet += time.Since(t0)

		t0 = time.Now()
		if rs, ok := inner.(sched.Resettable); !ok || !rs.Reset(env) {
			if inner, err = sched.Build(p.schedName, env, r.Scheduler.Params); err != nil {
				return nil, err
			}
		}
		out.ph.schedBuild += time.Since(t0)

		cfg := core.RunConfig{
			Dual:             built.Dual,
			Fack:             fack,
			Fprog:            fprog,
			Scheduler:        inner,
			Mode:             alg.Mode,
			Seed:             seed,
			Workload:         workload,
			Automata:         fleet,
			Horizon:          horizon,
			StepLimit:        stepLimit,
			HaltOnCompletion: !r.Run.ToQuiescence,
			Options: core.RunOptions{
				Trace: traceMode,
				// The decomposed executor checks inside each component;
				// single-engine runs are checked below, under their own
				// spans, exactly as the runner would.
				Check:   r.Run.Check && sharded,
				Shards:  r.Run.Shards,
				Regions: r.Run.Regions,
			},
			EpsAbort: sim.Time(r.Model.EpsAbort),
		}
		var ts *tracers
		if m != plain {
			ts = newTracers(built.Dual.GPrime, sharded, m == traced)
			cfg.Automata = make([]mac.Automaton, len(fleet))
			for v, a := range fleet {
				cfg.Automata[v] = wrapAutomaton(a, ts.of(mac.NodeID(v)), built.Dual.G)
			}
			var bound *tracer
			if ts.compOf == nil {
				bound = ts.list[0]
			}
			cfg.Scheduler = wrapScheduler(inner, bound, ts)
		}
		if sharded {
			// Every component engine needs its own scheduler; the first
			// build with this environment succeeded, so a failure here is a
			// registry bug.
			cfg.NewScheduler = func() mac.Scheduler {
				s, err := sched.Build(p.schedName, env, r.Scheduler.Params)
				if err != nil {
					panic(fmt.Sprintf("perfbench: shard scheduler rebuild: %v", err))
				}
				if ts == nil {
					return s
				}
				return wrapScheduler(s, nil, ts)
			}
		}
		var tf *os.File
		var tw *sim.TraceWriter
		if traceMode == core.TraceStream {
			if tf, err = os.Create(filepath.Join(dir, filepath.Base(scenario.TraceFilePath(r.Run.TraceFile, seed)))); err != nil {
				return nil, err
			}
			tw = sim.NewTraceWriter(tf)
			cfg.Options.Sink = tw
			if ts != nil {
				cfg.Options.Sink = &tracedSink{inner: tw, t: ts.list[0]}
			}
		}

		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		t0 = time.Now()
		res, err := rn.Run(cfg)
		out.ph.run += time.Since(t0)
		runtime.ReadMemStats(&ms)
		out.allocs += ms.Mallocs - mallocs
		out.allocBytes += ms.TotalAlloc - bytes
		if err != nil {
			if tf != nil {
				tf.Close()
			}
			return nil, err
		}

		t0 = time.Now()
		if tf != nil {
			err = tw.Flush()
			if cerr := tf.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("trace file: %w", err)
			}
		}
		out.ph.traceClose += time.Since(t0)

		t0 = time.Now()
		var rep *check.Report
		if r.Run.Check && res.Report == nil {
			rep = check.All(built.Dual, res.Engine.Instances(), check.Params{
				Fack: fack, Fprog: fprog, EpsAbort: cfg.EpsAbort, End: res.End,
			})
		}
		out.ph.checkAll += time.Since(t0)
		t0 = time.Now()
		if rep != nil {
			check.MMB(rep, res.Engine.Trace().Events(), check.MMBParams{DeliverKind: core.DeliverKind})
			res.Report = rep
		}
		out.ph.checkMMB += time.Since(t0)

		t0 = time.Now()
		if tf != nil {
			d, err := decodeTrace(tf.Name())
			if err != nil {
				return nil, err
			}
			out.traceBytes += d.bytes
			out.traceEvents += d.events
			out.traceDelivers += d.delivers
			if err := os.Remove(tf.Name()); err != nil {
				return nil, err
			}
		}
		out.ph.decode += time.Since(t0)

		st := trialStat{
			Seed: seed, Solved: res.Solved, Delivered: res.Delivered, Required: res.Required,
			Steps: res.Steps, Broadcasts: res.Broadcasts,
		}
		if res.Solved {
			st.Completion = int64(res.CompletionTime)
		}
		out.trials = append(out.trials, st)
		if !res.Solved || (res.Report != nil && !res.Report.OK()) || len(res.MMBViolations) > 0 {
			out.failed++
		}
		if ts != nil {
			// At the root, once every span has closed, a tracer's child
			// total is the time spent inside decorated calls.
			for _, t := range ts.list {
				out.layers.add(t)
				out.root += t.child
			}
			out.shards = max(out.shards, len(ts.list))
		}
	}

	// The report header: amacsim prints the first trial's network with its
	// exact diameter.
	t0 := time.Now()
	d := first.Dual
	out.net = network{N: d.N(), Diameter: d.G.Diameter(), Edges: d.G.M(), GreyEdges: len(d.UnreliableEdges())}
	out.ph.diameter = time.Since(t0)
	out.wall = time.Since(start) - out.ph.decode
	return out, nil
}

// resolved is a validated spec, defaults applied, with its registry
// lookups done.
type resolved struct {
	r         scenario.Spec
	alg       core.Algorithm
	schedName string
}

func resolve(spec scenario.Spec) (resolved, error) {
	if err := spec.Validate(); err != nil {
		return resolved{}, err
	}
	r := spec.WithDefaults()
	alg, ok := core.LookupAlgorithm(r.Algorithm.Name)
	if !ok {
		return resolved{}, fmt.Errorf("unknown algorithm %q", r.Algorithm.Name)
	}
	name := r.Scheduler.Name
	if name == "" {
		name = alg.DefaultScheduler
	}
	return resolved{r: r, alg: alg, schedName: name}, nil
}

// schedEnv is the scheduler environment of trials on built.
func (p resolved) schedEnv(built *topology.Built, wl *core.Workload) sched.Env {
	env := sched.Env{Dual: built.Dual, Artifact: built.Artifact,
		Fprog: sim.Time(p.r.Model.Fprog), Fack: sim.Time(p.r.Model.Fack)}
	for _, ar := range wl.Arrivals() {
		env.Payloads = append(env.Payloads, ar.Msg.Payload())
	}
	return env
}

// resettable reports whether every automaton of the fleet can be reset for
// the next trial.
func resettable(fleet []mac.Automaton) bool {
	for _, a := range fleet {
		if _, ok := a.(mac.Resettable); !ok {
			return false
		}
	}
	return true
}

// decoded summarizes an AMTR trace file.
type decoded struct {
	bytes            int64
	events, delivers int
}

// decodeTrace reads an AMTR file back with sim.TraceReader, the
// amacsim -read-trace path.
func decodeTrace(path string) (decoded, error) {
	f, err := os.Open(path)
	if err != nil {
		return decoded{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return decoded{}, err
	}
	d := decoded{bytes: fi.Size()}
	tr, err := sim.NewTraceReader(f)
	if err != nil {
		return decoded{}, fmt.Errorf("%s: %w", path, err)
	}
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return decoded{}, fmt.Errorf("%s: event %d: %w", path, d.events, err)
		}
		d.events++
		if ev.Kind == core.DeliverKind {
			d.delivers++
		}
	}
}
