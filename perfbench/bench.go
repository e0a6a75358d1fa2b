package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"amac/internal/core"
	"amac/internal/scenario"
	"amac/internal/sched"
)

// bench is one benchmark invocation: a workload at a seed, measured in one
// of the two modes, with the correctness gate's tallies.
type bench struct {
	w       workload
	seed    int64
	seconds time.Duration
	bin     string // the amacsim built from the checkout
	tmp     string // this invocation's temp directory, inside the checkout
	log     io.Writer

	attempted, failed int
	errors            []string
	metrics           map[string]metric
}

// fail records a correctness-gate violation; the run then reports
// correct: false.
func (b *bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.errors = append(b.errors, msg)
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %s\n", b.w.name, b.seed, msg)
}

func (b *bench) correct() bool { return len(b.errors) == 0 && b.failed == 0 }

func (b *bench) put(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// prepare generates the workload's spec for the seed and writes it where
// the child reads it.
func (b *bench) prepare() (scenario.Spec, string, error) {
	spec := b.w.specFor(b.seed)
	buf, err := spec.JSON()
	if err != nil {
		return spec, "", err
	}
	path := filepath.Join(b.tmp, b.w.name+".json")
	return spec, path, os.WriteFile(path, buf, 0o644)
}

// inprocDir is where in-process runs write their trace files, apart from
// the child's, which land in b.tmp.
func (b *bench) inprocDir() (string, error) {
	dir := filepath.Join(b.tmp, "inproc")
	return dir, os.MkdirAll(dir, 0o755)
}

// serial is the spec the in-process runs execute: the decomposed executor
// is a pure function of the spec at every shard count >= 1, so they run
// its components on one worker, where layer self times add up on a single
// timeline. Trials always run on one goroutine in-process.
func serial(s scenario.Spec) scenario.Spec {
	s.Run.Shards = min(s.Run.Shards, 1)
	return s
}

// endToEnd measures the untraced amacsim path: set-up in-process, then
// repeated child runs for the measuring window.
func (b *bench) endToEnd() error {
	spec, specPath, err := b.prepare()
	if err != nil {
		return err
	}
	dir, err := b.inprocDir()
	if err != nil {
		return err
	}
	ref, err := execute(serial(spec), counting, dir)
	if err != nil {
		return err
	}
	b.gateInproc("reference run", ref)
	b.gateExpected(ref)

	setup, err := measureSetup(specPath)
	if err != nil {
		return err
	}

	var wall, cpu, rss, rcvRate, trialRate []float64
	deadline := time.Now().Add(b.seconds)
	for len(wall) == 0 || time.Now().Before(deadline) {
		c, err := runChild(b.bin, specPath, b.tmp)
		if err != nil {
			return err
		}
		b.gateChild(c, spec, ref)
		s := c.wall.Seconds()
		wall = append(wall, s)
		cpu = append(cpu, c.cpu.Seconds())
		rss = append(rss, float64(c.maxRSSKB)/1024)
		rcvRate = append(rcvRate, float64(ref.layers.rcv)/s)
		trialRate = append(trialRate, float64(len(ref.trials))/s)
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %d amacsim runs, wall %v s\n", b.w.name, b.seed, len(wall), wall)
	b.put("wall_s", "s", median(wall))
	b.put("setup_s", "s", setup)
	b.put("cpu_s", "s", median(cpu))
	b.put("peak_rss_mb", "MB", median(rss))
	b.put("rcv_per_s", "1/s", median(rcvRate))
	b.put("trials_per_s", "1/s", median(trialRate))
	return nil
}

// measureSetup times the work before the first simulated event, as the
// median of repetitions: load and validate the spec, build the first
// trial's topology, the runner, the workload, the fleet and the scheduler.
// It repeats at least 5 times and until a second of set-up has been timed
// or 400 repetitions ran, so sub-millisecond set-ups get a stable median.
func measureSetup(specPath string) (float64, error) {
	var times []float64
	var total time.Duration
	for len(times) < 5 || (total < time.Second && len(times) < 400) {
		runtime.GC()
		d, err := setupOnce(specPath)
		if err != nil {
			return 0, err
		}
		total += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

func setupOnce(specPath string) (time.Duration, error) {
	start := time.Now()
	s, err := scenario.Load(specPath)
	if err != nil {
		return 0, err
	}
	p, err := resolve(s)
	if err != nil {
		return 0, err
	}
	built, err := scenario.BuildTopology(p.r, p.r.Run.Seed)
	if err != nil {
		return 0, err
	}
	core.NewRunner(built.Dual)
	wl, err := scenario.ResolveWorkload(p.r, built)
	if err != nil {
		return 0, err
	}
	if _, err := p.alg.NewFleet(built.Dual, wl.K(), p.r.Algorithm.Params); err != nil {
		return 0, err
	}
	if _, err := sched.Build(p.schedName, p.schedEnv(built, wl), p.r.Scheduler.Params); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// layers runs the spec once through amacsim (for the gate), then
// alternates untraced and traced in-process runs for the measuring window
// and reports the per-layer split.
func (b *bench) layers() error {
	spec, specPath, err := b.prepare()
	if err != nil {
		return err
	}
	dir, err := b.inprocDir()
	if err != nil {
		return err
	}
	c, err := runChild(b.bin, specPath, b.tmp)
	if err != nil {
		return err
	}
	var plains, traces []*inproc
	deadline := time.Now().Add(b.seconds)
	for len(traces) == 0 || time.Now().Before(deadline) {
		p, err := execute(serial(spec), plain, dir)
		if err != nil {
			return err
		}
		t, err := execute(serial(spec), traced, dir)
		if err != nil {
			return err
		}
		b.gateInproc("untraced in-process run", p)
		b.gateInproc("traced run", t)
		b.gateSame("traced run", "untraced in-process run", t, p)
		if len(traces) > 0 {
			b.gateCounts(traces[0], t)
		}
		b.gateSpans(t)
		plains, traces = append(plains, p), append(traces, t)
	}
	t := traces[0]
	b.gateExpected(t)
	b.gateChild(c, spec, t)
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %d traced runs\n", b.w.name, b.seed, len(traces))

	sec := func(f func(*inproc) time.Duration) float64 {
		v := make([]float64, len(traces))
		for i, t := range traces {
			v[i] = f(t).Seconds()
		}
		return median(v)
	}
	var steps uint64
	delivered := 0
	for _, st := range t.trials {
		steps += st.Steps
		delivered += st.Delivered
	}
	trials := float64(len(t.trials))
	macSim := func(t *inproc) time.Duration { return t.ph.run - t.root }

	b.put("topology.build_s", "s", sec(func(t *inproc) time.Duration { return t.ph.topology }))
	b.put("topology.edges", "count", float64(t.net.Edges))
	b.put("topology.grey_edges", "count", float64(t.net.GreyEdges))
	b.put("graph.diameter_s", "s", sec(func(t *inproc) time.Duration { return t.ph.diameter }))
	b.put("graph.approx_diameter_s", "s", sec(func(t *inproc) time.Duration { return t.ph.approxDiameter }))
	b.put("core.runner_new_s", "s", sec(func(t *inproc) time.Duration { return t.ph.runnerNew }))
	b.put("core.fleet_s", "s", sec(func(t *inproc) time.Duration { return t.ph.fleet }))
	b.put("sched.build_s", "s", sec(func(t *inproc) time.Duration { return t.ph.schedBuild }))
	b.put("sched.self_s", "s", sec(func(t *inproc) time.Duration { return t.layers.sched.self }))
	b.put("sched.calls", "count", float64(t.layers.sched.calls))
	b.put("core.automata_self_s", "s", sec(func(t *inproc) time.Duration { return t.layers.automata.self }))
	b.put("core.automata_calls", "count", float64(t.layers.automata.calls))
	b.put("core.run_s", "s", sec(func(t *inproc) time.Duration { return t.ph.run }))
	b.put("core.shards", "count", float64(t.shards))
	b.put("mac_sim.self_s", "s", sec(macSim))
	b.put("mac_sim.ns_per_event", "ns", sec(macSim)*1e9/float64(steps))
	b.put("sim.events", "count", float64(steps))
	b.put("mac.bcasts", "count", float64(t.layers.bcasts))
	b.put("mac.rcv", "count", float64(t.layers.rcv))
	b.put("mac.rcv_grey", "count", float64(t.layers.rcvGrey))
	b.put("mac.aborts", "count", float64(t.layers.aborts))
	b.put("mac.rcv_per_bcast", "ratio", float64(t.layers.rcv)/float64(t.layers.bcasts))
	b.put("mmb.useful_rcv_ratio", "ratio", float64(delivered)/float64(t.layers.rcv))
	b.put("mac.abort_ratio", "ratio", float64(t.layers.aborts)/float64(t.layers.bcasts))
	allocs, allocBytes := make([]float64, len(plains)), make([]float64, len(plains))
	for i, p := range plains {
		allocs[i] = float64(p.allocs) / trials
		allocBytes[i] = float64(p.allocBytes) / trials
	}
	b.put("core.allocs_per_trial", "count", median(allocs))
	b.put("core.alloc_bytes_per_trial", "B", median(allocBytes))
	b.put("trace.sink_self_s", "s", sec(func(t *inproc) time.Duration { return t.layers.sink.self + t.ph.traceClose }))
	b.put("trace.events", "count", float64(t.layers.sink.calls))
	b.put("trace.bytes", "B", float64(t.traceBytes))
	b.put("trace.decode_s", "s", sec(func(t *inproc) time.Duration { return t.ph.decode }))
	b.put("check.all_s", "s", sec(func(t *inproc) time.Duration { return t.ph.checkAll }))
	b.put("check.mmb_s", "s", sec(func(t *inproc) time.Duration { return t.ph.checkMMB }))
	overhead := make([]float64, len(traces))
	for i := range traces {
		overhead[i] = (traces[i].wall - plains[i].wall).Seconds()
	}
	b.put("traced.overhead_s", "s", median(overhead))
	return nil
}

// gateInproc checks one in-process run's own outcome.
func (b *bench) gateInproc(what string, r *inproc) {
	b.attempted += len(r.trials)
	b.failed += r.failed
	if r.failed > 0 {
		b.fail("%s: %d of %d trials unsolved or in violation", what, r.failed, len(r.trials))
	}
	required := 0
	for _, st := range r.trials {
		required += st.Required
	}
	if r.traceBytes > 0 && r.traceDelivers != required {
		b.fail("%s: AMTR trace decodes to %d deliver events, want %d", what, r.traceDelivers, required)
	}
	if r.layers.sink.calls > 0 && int64(r.traceEvents) != r.layers.sink.calls {
		b.fail("%s: AMTR trace decodes to %d events, the sink saw %d", what, r.traceEvents, r.layers.sink.calls)
	}
}

// gateSame requires two in-process runs of one spec to agree on every
// simulated statistic.
func (b *bench) gateSame(what, other string, x, y *inproc) {
	if x.net != y.net || !slices.Equal(x.trials, y.trials) || x.traceBytes != y.traceBytes || x.traceEvents != y.traceEvents {
		b.fail("%s differs from the %s: %+v %v vs %+v %v", what, other, x.net, summary(x.trials), y.net, summary(y.trials))
	}
}

// gateCounts requires the deterministic layer counts of repeated traced
// runs to repeat exactly.
func (b *bench) gateCounts(x, y *inproc) {
	cx, cy := x.layers, y.layers
	for _, c := range []*tracer{&cx, &cy} {
		c.sched.self, c.automata.self, c.sink.self = 0, 0, 0
	}
	if cx != cy || x.shards != y.shards {
		b.fail("traced-run counts differ between repetitions: %+v vs %+v", cx, cy)
	}
}

// spanTolerance bounds how far the decorators' self times may sum from the
// time spent inside decorated calls. Both are exact sums of the same clock
// readings, so any gap is a nesting bug, not noise.
const spanTolerance = time.Microsecond

// gateSpans checks a traced run's span accounting: every self time is
// non-negative, the layer self times sum to the time spent inside decorated
// calls, and the remainder of Runner.Run — the mac and sim self time — is
// non-negative.
func (b *bench) gateSpans(t *inproc) {
	l := t.layers
	for _, s := range []time.Duration{l.sched.self, l.automata.self, l.sink.self, t.ph.run - t.root} {
		if s < 0 {
			b.fail("negative self time in the traced run: sched %v automata %v sink %v mac+sim %v",
				l.sched.self, l.automata.self, l.sink.self, t.ph.run-t.root)
			return
		}
	}
	if d := l.sched.self + l.automata.self + l.sink.self - t.root; d > spanTolerance || d < -spanTolerance {
		b.fail("layer self times sum to %v, but %v was spent in decorated calls", l.sched.self+l.automata.self+l.sink.self, t.root)
	}
}

// gateChild checks one amacsim run against the in-process execution of the
// same spec: exit status, every trial solved and checked, and identical
// simulated statistics.
func (b *bench) gateChild(c *childRun, spec scenario.Spec, ref *inproc) {
	r := spec.WithDefaults()
	b.attempted += r.Run.Trials
	if c.exitErr != nil {
		b.failed += r.Run.Trials
		b.fail("amacsim exited with %v:\n%s", c.exitErr, c.output)
		return
	}
	rep := c.report
	if rep == nil {
		b.failed += r.Run.Trials
		b.fail("unreadable amacsim report: %v\n%s", c.parseErr, c.output)
		return
	}
	if len(rep.trials) == 1 {
		rep.trials[0].Seed = r.Run.Seed // the single-trial report omits it
	}
	want := slices.Clone(ref.trials)
	if len(want) > 1 {
		for i := range want {
			want[i].Broadcasts = 0 // the per-seed lines omit it
		}
	}
	for _, st := range rep.trials {
		if !st.Solved {
			b.failed++
		}
	}
	if rep.mmbViol {
		b.failed += len(rep.trials)
		b.fail("amacsim reports MMB violations")
	}
	if r.Run.Check && len(rep.trials) == 1 && !rep.checkOK {
		b.failed++
		b.fail("amacsim did not report \"model check: all guarantees hold\"")
	}
	if rep.net != ref.net || !slices.Equal(rep.trials, want) {
		b.fail("amacsim statistics differ from the in-process run: %+v %v vs %+v %v",
			rep.net, summary(rep.trials), ref.net, summary(want))
	}
	if r.Run.TraceFile == "" {
		return
	}
	var bytes int64
	events := 0
	for _, st := range ref.trials {
		path := filepath.Join(b.tmp, scenario.TraceFilePath(r.Run.TraceFile, st.Seed))
		d, err := decodeTrace(path)
		if err != nil {
			b.fail("amacsim trace: %v", err)
			return
		}
		if err := os.Remove(path); err != nil {
			b.fail("removing amacsim trace: %v", err)
		}
		if d.delivers != st.Required {
			b.fail("amacsim trace %s: %d deliver events, want %d", path, d.delivers, st.Required)
		}
		bytes += d.bytes
		events += d.events
	}
	if bytes != ref.traceBytes || events != ref.traceEvents {
		b.fail("amacsim traces hold %d events in %d bytes, the in-process run's %d events in %d bytes",
			events, bytes, ref.traceEvents, ref.traceBytes)
	}
}

// summary condenses trial statistics for error messages.
func summary(trials []trialStat) string {
	if len(trials) == 1 {
		return fmt.Sprintf("%+v", trials[0])
	}
	e := expectationOf(&inproc{trials: trials})
	return fmt.Sprintf("%d trials, %d steps, %d delivered, completion sum %d, digest %s",
		e.Trials, e.Steps, e.Delivered, e.Completion, e.Digest[:12])
}

// median returns the median of v (which it sorts).
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
