package scenario

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"amac/internal/core"
	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/par"
	"amac/internal/sched"
	"amac/internal/sim"
	"amac/internal/topology"
)

// TrialResult is one executed seed of a scenario.
type TrialResult struct {
	// Seed is the run seed of this trial.
	Seed int64
	// Built is the topology the trial ran on (randomized families draw a
	// fresh instance per trial unless the spec pins the topology seed).
	// Run and Sweep execute unpinned trials on warm per-worker state, so
	// the graphs behind Built are workspace storage recycled by the next
	// trial on the same worker — except for the spec's first and final
	// trials, which are always built into stable storage so report
	// consumers stay correct (amacsim's header reads the first trial's
	// network, bound formulas the last trial's). Callers needing every
	// trial's instance intact copy it in a watcher or run each seed
	// through Trial.
	Built *topology.Built
	// Workload is the resolved arrival schedule.
	Workload *core.Workload
	// SchedulerName is the resolved scheduler's self-description.
	SchedulerName string
	// Result is the execution outcome. Under Run and Sweep, Result.Engine
	// — and the trace it backs, Result.Trace — is recycled by the next
	// trial on the same worker: with Trials == 1 it stays valid, and the
	// scalar fields and Report are always safe, but multi-trial callers
	// that need per-trial traces or instances must either copy them in a
	// watcher or run each seed through Trial. Decomposed runs (shards >= 1
	// on a multi-component network) leave Engine nil and return a freshly
	// merged Trace the caller owns.
	Result *core.Result
}

// Report is the outcome of Run: the resolved spec plus one result per trial,
// in seed order. All aggregate accessors reduce in that order, so reports
// are byte-stable at any parallelism.
type Report struct {
	Spec   Spec
	Trials []*TrialResult
}

// Solved counts solved trials.
func (r *Report) Solved() int {
	n := 0
	for _, t := range r.Trials {
		if t.Result.Solved {
			n++
		}
	}
	return n
}

// MeanCompletion averages completion time over the solved trials (0 when
// none solved).
func (r *Report) MeanCompletion() float64 {
	sum, n := 0.0, 0
	for _, t := range r.Trials {
		if t.Result.Solved {
			sum += float64(t.Result.CompletionTime)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// WorstCompletion returns the maximum completion time over solved trials.
func (r *Report) WorstCompletion() float64 {
	worst := 0.0
	for _, t := range r.Trials {
		if t.Result.Solved && float64(t.Result.CompletionTime) > worst {
			worst = float64(t.Result.CompletionTime)
		}
	}
	return worst
}

// Steps totals simulation events across all trials.
func (r *Report) Steps() uint64 {
	var s uint64
	for _, t := range r.Trials {
		s += t.Result.Steps
	}
	return s
}

// Run validates the spec and executes its trials on a worker pool of
// Run.Parallelism, returning per-trial results in seed order. Every trial is
// an independent deterministic simulation keyed by its seed, so the report
// is a pure function of the spec at any parallelism. It is the sweep
// pipeline over the one spec: trials run on warm per-worker state (see
// trialWorker).
func Run(s Spec) (*Report, error) {
	r := s.WithDefaults()
	p, err := newSweepPlan([]Spec{s}, SweepOptions{Parallelism: r.Run.Parallelism}, 0, -1)
	if err != nil {
		// Plan errors carry a spec-index label that says nothing for a
		// single spec; report the bare cause.
		return nil, errors.Unwrap(err)
	}
	trials, task, err := p.run(r.Run.Parallelism, 0, r.Run.Trials)
	if err != nil {
		return nil, fmt.Errorf("scenario: trial with seed %d: %w", r.Run.Seed+int64(task), err)
	}
	return &Report{Spec: p.resolved[0], Trials: trials}, nil
}

// SweepOptions parameterizes Sweep beyond the spec grid itself.
type SweepOptions struct {
	// Parallelism bounds concurrent (spec, trial) simulations; 0 or 1 runs
	// sequentially. Reports are byte-identical at any value.
	Parallelism int
	// Progress, when set, is called after each completed trial with the
	// cumulative number of trials finished so far in this call (1..total).
	// Trials complete on a worker pool, so the callback must be safe for
	// concurrent use; counts are assigned atomically and each value in
	// 1..total is delivered exactly once, though not necessarily in
	// order. Purely observational — results are identical with or
	// without it.
	Progress func(done int)
}

// Sweep executes a grid of specs, flattening every (spec, trial) pair onto
// one worker pool of the given parallelism, and returns one report per spec
// in input order. Each spec's own Run.Parallelism is ignored; everything
// else (seeds, trials) applies per spec.
func Sweep(specs []Spec, parallelism int) ([]*Report, error) {
	return SweepWithOptions(specs, SweepOptions{Parallelism: parallelism})
}

// SweepOffsets returns the flattened task-space offsets of a sweep: tasks
// [offsets[i], offsets[i+1]) are spec i's trials in seed order, and
// offsets[len(specs)] is the total task count. Task t of spec i runs with
// seed Run.Seed + (t - offsets[i]). This is the coordinate system SweepShard
// partitions, and shard planners derive their shard boundaries from it.
func SweepOffsets(specs []Spec) []int {
	offsets := make([]int, len(specs)+1)
	for i, s := range specs {
		offsets[i+1] = offsets[i] + s.WithDefaults().Run.Trials
	}
	return offsets
}

// SweepWithOptions is Sweep with explicit options. Trials of each spec run
// on one trialWorker per (spec, worker) pair — pool-local state that no two
// goroutines touch concurrently — so repeated trials skip fleet
// construction and engine allocation while the parallel reduction stays
// byte-identical.
func SweepWithOptions(specs []Spec, o SweepOptions) ([]*Report, error) {
	p, err := newSweepPlan(specs, o, 0, -1)
	if err != nil {
		return nil, err
	}
	total := p.offsets[len(specs)]
	trials, task, err := p.run(o.Parallelism, 0, total)
	if err != nil {
		return nil, fmt.Errorf("scenario: sweep task %d: %w", task, err)
	}
	out := make([]*Report, len(specs))
	for i := range specs {
		out[i] = &Report{Spec: p.resolved[i], Trials: trials[p.offsets[i]:p.offsets[i+1]]}
	}
	return out, nil
}

// SweepShard executes tasks [lo, hi) of the sweep's flattened (spec, trial)
// task space — the SweepOffsets coordinate system — and returns their
// results in task order. Every task is a pure function of its (spec, seed),
// and the warm per-worker state a shard builds is byte-identical to the
// state a whole-sweep run would use, so concatenating the results of any
// partition of [0, total) in index order reproduces SweepWithOptions over
// the same specs exactly. This is the distribution primitive behind
// internal/jobs: shards run on different processes (or machines) and merge
// back byte-identically.
func SweepShard(specs []Spec, lo, hi int, o SweepOptions) ([]*TrialResult, error) {
	p, err := newSweepPlan(specs, o, lo, hi)
	if err != nil {
		return nil, err
	}
	trials, task, err := p.run(o.Parallelism, lo, hi)
	if err != nil {
		return nil, fmt.Errorf("scenario: sweep task %d: %w", task, err)
	}
	return trials, nil
}

// sweepPlan is the resolved execution plan of a sweep: every spec validated
// and resolved, the flattened task-space offsets, and per-worker warm state
// for the task range the caller will run. It is the single pipeline behind
// Run (one spec), SweepWithOptions (the full task space) and SweepShard (a
// slice of it), so they cannot diverge.
type sweepPlan struct {
	resolved []Spec
	offsets  []int
	// workers holds each spec's per-worker trial state, indexed by the
	// pool's worker slot; nil for specs outside the task range.
	workers  [][]*trialWorker
	progress func(done int)
}

// newSweepPlan validates and resolves the specs and prepares warm state for
// the specs whose trials intersect [lo, hi); hi < 0 selects the full task
// space. Pinned topologies and warm workers are only built for intersecting
// specs, so a narrow shard of a wide grid pays for its own slice only.
func newSweepPlan(specs []Spec, o SweepOptions, lo, hi int) (*sweepPlan, error) {
	p := &sweepPlan{
		resolved: make([]Spec, len(specs)),
		offsets:  make([]int, len(specs)+1),
		workers:  make([][]*trialWorker, len(specs)),
		progress: o.Progress,
	}
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: spec %d (%s): %w", i, s.Name, err)
		}
		p.resolved[i] = s.WithDefaults()
		p.offsets[i+1] = p.offsets[i] + p.resolved[i].Run.Trials
	}
	total := p.offsets[len(specs)]
	if hi < 0 {
		hi = total
	}
	if lo < 0 || hi > total || lo > hi {
		return nil, fmt.Errorf("scenario: shard [%d, %d) outside the sweep's task space [0, %d)", lo, hi, total)
	}
	workers := par.Workers(o.Parallelism, hi-lo)
	for i, r := range p.resolved {
		if p.offsets[i+1] <= lo || p.offsets[i] >= hi {
			continue
		}
		var pin *pinnedDraw
		if topologyPinned(r) {
			built, err := buildTopology(r, r.Run.Seed)
			if err != nil {
				return nil, fmt.Errorf("scenario: spec %d (%s): %w", i, specs[i].Name, err)
			}
			pin = &pinnedDraw{built: built, proto: core.NewRunner(built.Dual)}
		}
		p.workers[i] = make([]*trialWorker, workers)
		for w := range p.workers[i] {
			p.workers[i][w] = &trialWorker{spec: r, pin: pin}
		}
	}
	return p, nil
}

// run executes tasks [lo, hi) on a pool of the given parallelism and
// returns their results in task order, or the global index of the first
// failed task with its error. Trial seeds are derived from the global task
// index, never the shard-local one, so shard boundaries cannot shift an
// execution.
func (p *sweepPlan) run(parallelism, lo, hi int) ([]*TrialResult, int, error) {
	trials := make([]*TrialResult, hi-lo)
	errs := make([]error, hi-lo)
	var completed atomic.Int64
	par.ForWorker(parallelism, hi-lo, func(worker, i int) {
		task := lo + i
		// Binary search is overkill: sweeps are small, scan.
		si := 0
		for p.offsets[si+1] <= task {
			si++
		}
		seed := p.resolved[si].Run.Seed + int64(task-p.offsets[si])
		// keepBuilt marks the first and last tasks this call runs for the
		// spec: their instances build into stable storage so the returned
		// TrialResults honor the Built contract (see TrialResult.Built)
		// even when the range is a shard.
		first := max(p.offsets[si], lo)
		last := min(p.offsets[si+1], hi) - 1
		trials[i], errs[i] = p.workers[si][worker].trial(seed, task == first || task == last)
		if errs[i] == nil && p.progress != nil {
			p.progress(int(completed.Add(1)))
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, lo + i, err
		}
	}
	return trials, 0, nil
}

// schedSlot is a worker's cached scheduler together with its rendered
// self-description: Reset + Attach reuses the same instance trial after
// trial, so the name — a fmt.Sprintf per render — is computed once when the
// scheduler is built instead of once per trial.
type schedSlot struct {
	s    mac.Scheduler
	name string
}

// pinnedDraw is the one network of a pinned spec, shared read-only by the
// spec's workers, with the runner prototype they fork: the CSR and
// component indexes are derived once per spec, not per worker. Forking
// reads only immutable state, so workers fork concurrently without locking.
type pinnedDraw struct {
	built *topology.Built
	proto *core.Runner
}

// trialWorker is one pool worker's warm trial state for one spec: a
// core.Runner rebound to each trial's network, the workspace unpinned draws
// build into, the cached scheduler, a pool of resettable fleets and the
// resolved trial plans interned by node count. Repeated trials therefore
// skip graph, engine, delivery-row and (when the automata implement
// mac.Resettable) fleet construction even though no two unpinned trials
// share a network. A pinned spec is an unpinned one whose draw is cached:
// every trial runs on pin's network, so its one plan is never rebound, its
// runner is forked from pin's prototype, and its pooled fleet is reset
// without a Refit.
//
// A worker serves one trial at a time; the pool gives every worker slot its
// own trialWorker, so no locking is needed.
type trialWorker struct {
	spec  Spec        // resolved
	pin   *pinnedDraw // nil when every trial draws a fresh network
	rn    *core.Runner
	ws    *topology.Workspace
	sched schedSlot
	fleet fleetPool
	// plans interns resolved trial plans by drawn node count. Everything in
	// a plan except the built instance and the horizon is a pure function
	// of (spec, n) for the non-construction workload kinds, so a draw whose
	// size the worker has seen before skips workload and payload
	// re-derivation entirely (see planFor).
	plans map[int]*trialPlan
}

// trial executes one seed on the worker's warm state. The execution is a
// pure function of (spec, seed) — builds are byte-identical with and
// without the workspace, and the rebound runner is byte-identical to a cold
// core.Run — so results match the cold path at any parallelism. keepBuilt
// marks an unpinned spec's first and final trials: they build into stable
// storage instead of the recycled workspace, keeping the report's edge
// instances valid after the sweep (see TrialResult.Built).
func (w *trialWorker) trial(seed int64, keepBuilt bool) (*TrialResult, error) {
	built, err := w.draw(seed, keepBuilt)
	if err != nil {
		return nil, err
	}
	switch {
	case w.rn != nil:
		w.rn.Rebind(built.Dual) // a no-op on the pinned network
	case w.pin != nil:
		w.rn = w.pin.proto.Fork()
	default:
		w.rn = core.NewRunner(built.Dual)
	}
	p, err := w.planFor(built)
	if err != nil {
		return nil, err
	}
	automata, err := w.fleet.fleetFor(p, w.pin == nil)
	if err != nil {
		return nil, err
	}
	res, err := p.execute(seed, automata, w.rn, &w.sched)
	if err != nil {
		return nil, err
	}
	w.fleet.put(automata)
	return res, nil
}

// draw returns the trial's network: the pinned one, or a fresh draw into
// the worker's workspace (stable storage when keepBuilt).
func (w *trialWorker) draw(seed int64, keepBuilt bool) (*topology.Built, error) {
	switch {
	case w.pin != nil:
		return w.pin.built, nil
	case keepBuilt:
		return buildTopology(w.spec, seed)
	}
	if w.ws == nil {
		w.ws = topology.NewWorkspace()
	}
	return buildTopologyInto(w.spec, seed, w.ws)
}

// planFor returns the worker's interned trial plan for the draw's node
// count, rebound to a fresh unpinned instance, or resolves and interns a new
// one. Interning is sound because every plan field other than the instance
// and the horizon depends only on (spec, n): singleton origin placement is a
// function of n and K, single-source and explicit workloads only
// bounds-check nodes against n, and the poisson stream is keyed by the
// spec-level workload seed, which is constant across trials. Construction
// workloads read the drawn artifact, so they are interned only on a pinned
// network — the only place they arise, since they need deterministic
// families.
func (w *trialWorker) planFor(built *topology.Built) (*trialPlan, error) {
	if w.pin == nil && w.spec.Workload.Kind == WorkloadConstruction {
		return resolvePlan(w.spec, built)
	}
	n := built.Dual.N()
	if p := w.plans[n]; p != nil {
		if w.pin == nil {
			p.rebind(built)
		}
		return p, nil
	}
	p, err := resolvePlan(w.spec, built)
	if err != nil {
		return nil, err
	}
	if w.plans == nil {
		w.plans = make(map[int]*trialPlan)
	}
	w.plans[n] = p
	return p, nil
}

// Trial executes one seed of the scenario: build the topology (seeded per
// trial unless pinned), resolve the workload, instantiate a fresh fleet and
// scheduler, and run. It does not re-validate; Run and Sweep do, and direct
// callers get build-time errors for anything malformed.
func Trial(s Spec, seed int64) (*TrialResult, error) {
	built, err := buildTopology(s.WithDefaults(), seed)
	if err != nil {
		return nil, err
	}
	return TrialOn(s, seed, built)
}

// BuildTopology constructs the network instance that trial `seed` of the
// spec would run on. Callers replaying one pinned instance across many
// hand-rolled trials build it once here and pass it to TrialOn; Run and
// Sweep already do this automatically for pinned topologies.
func BuildTopology(s Spec, seed int64) (*topology.Built, error) {
	return buildTopology(s.WithDefaults(), seed)
}

// TrialOn executes one seed of the scenario on an already-built network
// instance (see BuildTopology). The instance is treated as read-only.
func TrialOn(s Spec, seed int64, built *topology.Built) (*TrialResult, error) {
	p, err := resolvePlan(s.WithDefaults(), built)
	if err != nil {
		return nil, err
	}
	automata, err := p.newFleet()
	if err != nil {
		return nil, err
	}
	return p.execute(seed, automata, nil, nil)
}

// ResolveWorkload resolves the spec's workload against a built instance —
// the same resolution every trial performs. The result depends only on the
// spec and the instance, never on the trial seed, so clients reconstructing
// reports from serialized trial records (internal/jobs) recover the exact
// workload a remote worker ran.
func ResolveWorkload(s Spec, built *topology.Built) (*core.Workload, error) {
	assignment, workload, err := buildWorkload(s.WithDefaults(), built)
	if err != nil {
		return nil, err
	}
	if workload == nil {
		workload = core.FromAssignment(assignment)
	}
	return workload, nil
}

// TopologyPinned reports whether every trial of the spec runs on the same
// network instance (built once from the run's base seed), as opposed to a
// fresh draw per trial seed. Exported for report reconstruction: a pinned
// spec's instance is rebuilt once, an unpinned spec's per trial seed.
func TopologyPinned(s Spec) bool {
	return topologyPinned(s.WithDefaults())
}

// buildTopology constructs the trial's network instance.
func buildTopology(r Spec, seed int64) (*topology.Built, error) {
	return buildTopologyInto(r, seed, nil)
}

// buildTopologyInto constructs the trial's network instance into ws scratch
// (nil allocates fresh). The derived topology seed is threaded to the
// builder as an exact int64 — never through the float64 parameter map,
// which is lossy above 2^53 and used to silently collide large trial seeds
// onto one network. An explicit "seed" parameter still pins the family's
// stream, as always.
func buildTopologyInto(r Spec, seed int64, ws *topology.Workspace) (*topology.Built, error) {
	topoSeed := r.Topology.Seed
	if topoSeed == 0 {
		topoSeed = seed * r.Topology.SeedFactor
	}
	return topology.BuildInto(r.Topology.Name, r.Topology.Params, topoSeed, ws)
}

// topologyPinned reports whether every trial of the spec sees the same
// network instance, letting Run and Sweep build it once. Families
// registered as deterministic (ring, line, grid, ... — builders that
// ignore the seed) are pinned regardless of seeding: rebuilding them per
// trial would construct an identical network every time and forfeit the
// warm arena path.
func topologyPinned(r Spec) bool {
	return topology.Deterministic(r.Topology.Name) ||
		r.Topology.Seed != 0 || r.Topology.Params.Has("seed")
}

// trialPlan is everything about a trial that is a pure function of the
// resolved spec and its built network: the workload, payloads, algorithm,
// horizon and step limit. It is the single spec-resolution pipeline behind
// both the cold path (TrialOn resolves one per trial) and the warm path
// (trialWorker interns one per drawn node count), so the two cannot
// diverge.
type trialPlan struct {
	spec      Spec // resolved
	built     *topology.Built
	workload  *core.Workload
	payloads  []sim.Payload
	alg       core.Algorithm
	schedName string
	horizon   sim.Time
	stepLimit uint64
	k         int
}

// resolvePlan resolves the trial-invariant parts of a spec against its
// built topology.
func resolvePlan(r Spec, built *topology.Built) (*trialPlan, error) {
	assignment, workload, err := buildWorkload(r, built)
	if err != nil {
		return nil, err
	}
	if workload == nil {
		workload = core.FromAssignment(assignment)
	}
	k := workload.K()
	alg, ok := core.LookupAlgorithm(r.Algorithm.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (registered: %v)",
			r.Algorithm.Name, core.AlgorithmNames())
	}
	schedName := r.Scheduler.Name
	if schedName == "" {
		schedName = alg.DefaultScheduler
	}
	payloads := make([]sim.Payload, 0, k)
	for _, ar := range workload.Arrivals() {
		payloads = append(payloads, ar.Msg.Payload())
	}
	horizon := sim.Time(r.Run.Horizon)
	if horizon == 0 && alg.Horizon != nil {
		horizon = alg.Horizon(built.Dual, k, sim.Time(r.Model.Fprog), r.Algorithm.Params)
	}
	stepLimit := r.Run.StepLimit
	if stepLimit == 0 {
		stepLimit = alg.StepLimit
	}
	return &trialPlan{
		spec:      r,
		built:     built,
		workload:  workload,
		payloads:  payloads,
		alg:       alg,
		schedName: schedName,
		horizon:   horizon,
		stepLimit: stepLimit,
		k:         k,
	}, nil
}

// newFleet builds a fresh fleet for the plan.
func (p *trialPlan) newFleet() ([]mac.Automaton, error) {
	return p.alg.NewFleet(p.built.Dual, p.k, p.spec.Algorithm.Params)
}

// rebind points an interned plan at a fresh draw of the same node count,
// recomputing the only instance-dependent field: the horizon, whose
// registered formula may read instance invariants like the diameter. The
// result is field-for-field identical to resolvePlan(spec, built), which
// TestInternedPlanMatchesResolved pins.
func (p *trialPlan) rebind(built *topology.Built) {
	p.built = built
	horizon := sim.Time(p.spec.Run.Horizon)
	if horizon == 0 && p.alg.Horizon != nil {
		horizon = p.alg.Horizon(built.Dual, p.k, sim.Time(p.spec.Model.Fprog), p.spec.Algorithm.Params)
	}
	p.horizon = horizon
}

// scheduler returns the trial's scheduler: the cached one re-armed via
// sched.Resettable when cache points at a compatible instance, or a fresh
// build (stored back into a non-nil cache for the worker's next trial).
// Reset + Attach is observably identical to a fresh build + Attach, so the
// cache never changes executions.
func (p *trialPlan) scheduler(cache *schedSlot) (mac.Scheduler, string, error) {
	r := p.spec
	env := sched.Env{
		Dual:     p.built.Dual,
		Artifact: p.built.Artifact,
		Payloads: p.payloads,
		Fprog:    sim.Time(r.Model.Fprog),
		Fack:     sim.Time(r.Model.Fack),
	}
	if cache != nil && cache.s != nil {
		if rs, ok := cache.s.(sched.Resettable); ok && rs.Reset(env) {
			return cache.s, cache.name, nil
		}
	}
	s, err := sched.Build(p.schedName, env, r.Scheduler.Params)
	if err != nil {
		return nil, "", err
	}
	name := s.Name()
	if cache != nil {
		cache.s, cache.name = s, name
	}
	return s, name, nil
}

// execute runs one seed of the plan with the given fleet: through the warm
// runner when rn is non-nil, or a cold core.Run otherwise. The scheduler
// comes from the worker's cache when one is supplied, and is built fresh
// otherwise.
func (p *trialPlan) execute(seed int64, automata []mac.Automaton, rn *core.Runner, cache *schedSlot) (*TrialResult, error) {
	r := p.spec
	scheduler, schedName, err := p.scheduler(cache)
	if err != nil {
		return nil, err
	}
	mode, err := r.Run.TraceMode()
	if err != nil {
		return nil, err
	}
	cfg := core.RunConfig{
		Dual:             p.built.Dual,
		Fack:             sim.Time(r.Model.Fack),
		Fprog:            sim.Time(r.Model.Fprog),
		Scheduler:        scheduler,
		Mode:             p.alg.Mode,
		Seed:             seed,
		Workload:         p.workload,
		Automata:         automata,
		Horizon:          p.horizon,
		StepLimit:        p.stepLimit,
		HaltOnCompletion: !r.Run.ToQuiescence,
		Options: core.RunOptions{
			Trace:   mode,
			Check:   r.Run.Check,
			Shards:  r.Run.Shards,
			Regions: r.Run.Regions,
		},
		EpsAbort: sim.Time(r.Model.EpsAbort),
	}
	if r.Run.Shards >= 1 {
		// Each shard engine needs its own scheduler instance; rebuilding
		// with the environment that just built the main scheduler cannot
		// fail differently, so an error here is a registry bug.
		env := sched.Env{
			Dual:     p.built.Dual,
			Artifact: p.built.Artifact,
			Payloads: p.payloads,
			Fprog:    sim.Time(r.Model.Fprog),
			Fack:     sim.Time(r.Model.Fack),
		}
		params := r.Scheduler.Params
		schedName := p.schedName
		cfg.NewScheduler = func() mac.Scheduler {
			s, err := sched.Build(schedName, env, params)
			if err != nil {
				panic(fmt.Sprintf("scenario: shard scheduler rebuild: %v", err))
			}
			return s
		}
	}
	var tw *sim.TraceWriter
	var tf *os.File
	if r.Run.TraceFile != "" {
		path := TraceFilePath(r.Run.TraceFile, seed)
		tf, err = os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace file: %w", err)
		}
		tw = sim.NewTraceWriter(tf)
		cfg.Options.Sink = tw
	}
	var res *core.Result
	if rn != nil {
		res, err = rn.Run(cfg)
	} else {
		res, err = core.Run(cfg)
	}
	if tw != nil {
		ferr := tw.Flush()
		if cerr := tf.Close(); ferr == nil {
			ferr = cerr
		}
		if err == nil && ferr != nil {
			err = fmt.Errorf("scenario: trace file %s: %w", tf.Name(), ferr)
		}
	}
	if err != nil {
		return nil, err
	}
	return &TrialResult{
		Seed:          seed,
		Built:         p.built,
		Workload:      p.workload,
		SchedulerName: schedName,
		Result:        res,
	}, nil
}

// TraceFilePath derives the per-trial trace stream path from a spec's
// trace_file: the trial seed is spliced in before the extension
// ("out.amtr" with seed 3 -> "out.s3.amtr"), so multi-trial runs and
// parallel workers never share a file. Exported so consumers locate the
// files a run produced.
func TraceFilePath(pattern string, seed int64) string {
	ext := filepath.Ext(pattern)
	return fmt.Sprintf("%s.s%d%s", strings.TrimSuffix(pattern, ext), seed, ext)
}

// buildWorkload resolves the workload spec against the built topology. It
// returns either an assignment (time-zero workloads) or a timed workload.
func buildWorkload(r Spec, built *topology.Built) (core.Assignment, *core.Workload, error) {
	n := built.Dual.N()
	w := r.Workload
	switch w.Kind {
	case WorkloadSingleton:
		origins := make([]graph.NodeID, 0, len(w.Origins))
		if len(w.Origins) > 0 {
			for i, o := range w.Origins {
				if o < 0 || o >= n {
					return nil, nil, fmt.Errorf("scenario: workload: origin %d (index %d) outside [0,%d)", o, i, n)
				}
				origins = append(origins, graph.NodeID(o))
			}
		} else {
			for i := 0; i < w.K; i++ {
				origins = append(origins, graph.NodeID(i*n/w.K))
			}
		}
		return core.Singleton(n, origins), nil, nil
	case WorkloadSingleSource:
		if w.Origin >= n {
			return nil, nil, fmt.Errorf("scenario: workload: origin %d outside [0,%d)", w.Origin, n)
		}
		return core.SingleSource(n, graph.NodeID(w.Origin), w.K), nil, nil
	case WorkloadPoisson:
		wseed := w.Seed
		if wseed == 0 {
			wseed = r.Run.Seed
		}
		return nil, core.PoissonWorkload(n, w.K, sim.Time(w.Span), wseed), nil
	case WorkloadExplicit:
		wl := &core.Workload{}
		for i, ar := range w.Arrivals {
			if ar.Node >= n {
				return nil, nil, fmt.Errorf("scenario: workload: arrival %d at node %d outside [0,%d)", i, ar.Node, n)
			}
			wl.Add(sim.Time(ar.At), graph.NodeID(ar.Node), core.Msg{ID: i, Origin: graph.NodeID(ar.Node)})
		}
		return nil, wl, nil
	case WorkloadConstruction:
		switch art := built.Artifact.(type) {
		case *topology.ParallelLinesC:
			a := make(core.Assignment, n)
			a[art.A(1)] = []core.Msg{{ID: 0, Origin: art.A(1)}}
			a[art.B(1)] = []core.Msg{{ID: 1, Origin: art.B(1)}}
			return a, nil, nil
		case *topology.StarChoke:
			a := make(core.Assignment, n)
			for i := 1; i < art.K; i++ {
				v := art.Source(i)
				a[v] = []core.Msg{{ID: i - 1, Origin: v}}
			}
			a[art.Hub()] = []core.Msg{{ID: art.K - 1, Origin: art.Hub()}}
			return a, nil, nil
		default:
			return nil, nil, fmt.Errorf("scenario: workload: topology %q has no canonical construction workload (artifact %T)",
				r.Topology.Name, built.Artifact)
		}
	default:
		return nil, nil, fmt.Errorf("scenario: workload: unknown kind %q", w.Kind)
	}
}
