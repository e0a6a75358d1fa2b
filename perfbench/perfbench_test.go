package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"amac/internal/mac"
	"amac/internal/scenario"
)

// small shrinks a workload's spec to test size, keeping its algorithm,
// scheduler, trace mode and executor.
func small(t *testing.T, name string, seed int64) scenario.Spec {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	s := w.specFor(seed)
	p := s.Topology.Params.Clone()
	switch name {
	case "rgg-bmmb-large":
		p["n"], p["side"] = 300, 26.1*math.Sqrt(300/1e4)
	case "rgg-fmmb-trials":
		p["n"], p["side"] = 120, 9.5*math.Sqrt(120/400.0)
		s.Run.Trials = 2
	case "contention-checked-sweep":
		s.Run.Trials = 12
	case "pods-sharded-stream":
		p["n"] = 2000
	}
	s.Topology.Params = p
	return s
}

// rcvOf counts the receive events of a single-engine run from its
// broadcast instances.
func rcvOf(t *testing.T, res *scenario.TrialResult) int64 {
	t.Helper()
	if res.Result.Engine == nil {
		t.Fatal("no engine to count receives from")
	}
	var n int64
	for _, b := range res.Result.Engine.Instances() {
		n += int64(b.NumDelivered())
	}
	return n
}

func TestTracedRunMatchesUntracedExecution(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			spec := small(t, w.name, 3)
			dir := t.TempDir()
			tr, err := execute(serial(spec), traced, dir)
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := execute(serial(spec), counting, dir)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := execute(serial(spec), plain, dir)
			if err != nil {
				t.Fatal(err)
			}

			// The execution amacsim performs: scenario.Run at the spec's own
			// parallelism and shard count, trace files in a temp dir.
			ref := spec
			if ref.Run.TraceFile != "" {
				ref.Run.TraceFile = dir + "/ref.amtr"
			}
			rep, err := scenario.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			var want []trialStat
			for _, tr := range rep.Trials {
				res := tr.Result
				st := trialStat{Seed: tr.Seed, Solved: res.Solved, Delivered: res.Delivered,
					Required: res.Required, Steps: res.Steps, Broadcasts: res.Broadcasts}
				if res.Solved {
					st.Completion = int64(res.CompletionTime)
				}
				want = append(want, st)
			}
			for _, got := range []*inproc{tr, cnt, pl} {
				if !slices.Equal(got.trials, want) {
					t.Fatalf("in-process trials %+v, scenario.Run %+v", got.trials, want)
				}
				if got.failed != 0 {
					t.Fatalf("%d trials failed", got.failed)
				}
			}
			if tr.layers.rcv != cnt.layers.rcv || tr.layers.rcv == 0 {
				t.Fatalf("traced run counted %d receives, counting run %d", tr.layers.rcv, cnt.layers.rcv)
			}
			if spec.Run.Trials == 1 && spec.Run.Shards == 0 {
				if got := rcvOf(t, rep.Trials[0]); got != tr.layers.rcv {
					t.Fatalf("traced run counted %d receives, the engine's instances hold %d", tr.layers.rcv, got)
				}
			}
			b := &bench{w: w, log: &bytes.Buffer{}, metrics: map[string]metric{}}
			b.gateSpans(tr)
			b.gateInproc("traced run", tr)
			if len(b.errors) > 0 {
				t.Fatal(b.errors)
			}
		})
	}
}

// TestShardedTracingIsRaceFree runs the sharded workload's traced run with
// several concurrent shard workers (run it under -race) and checks that it
// counts exactly what the one-worker run does.
func TestShardedTracingIsRaceFree(t *testing.T) {
	spec := small(t, "pods-sharded-stream", 5)
	spec.Run.Shards = 4
	dir := t.TempDir()
	par, err := execute(spec, traced, dir)
	if err != nil {
		t.Fatal(err)
	}
	one, err := execute(serial(spec), traced, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(par.trials, one.trials) || par.traceBytes != one.traceBytes || par.shards != one.shards || par.shards < 2 {
		t.Fatalf("4 shard workers: %+v %d bytes %d shards; 1 worker: %+v %d bytes %d shards",
			par.trials, par.traceBytes, par.shards, one.trials, one.traceBytes, one.shards)
	}
	b := &bench{log: &bytes.Buffer{}}
	b.gateCounts(par, one)
	if len(b.errors) > 0 {
		t.Fatal(b.errors)
	}
}

type plainAuto struct{}

func (plainAuto) Wakeup(mac.Context)             {}
func (plainAuto) Recv(mac.Context, mac.Message)  {}
func (plainAuto) Acked(mac.Context, mac.Message) {}

type arriverAuto struct{ plainAuto }

func (arriverAuto) Arrive(mac.Context, mac.Payload) {}

type timerAuto struct{ plainAuto }

func (timerAuto) Timer(mac.EnhancedContext, any) {}

type bothAuto struct{ arriverAuto }

func (bothAuto) Timer(mac.EnhancedContext, any) {}

type plainSched struct{}

func (plainSched) Name() string          { return "fake" }
func (plainSched) Attach(mac.API)        {}
func (plainSched) OnBcast(*mac.Instance) {}
func (plainSched) OnAbort(*mac.Instance) {}

type timerSched struct{ plainSched }

func (timerSched) OnTimer(any, int64, int64) {}

func TestDecoratorsExposeExactlyTheWrappedInterfaces(t *testing.T) {
	tr := &tracer{}
	for _, a := range []mac.Automaton{plainAuto{}, arriverAuto{}, timerAuto{}, bothAuto{}} {
		d := wrapAutomaton(a, tr, nil)
		_, wantArr := a.(mac.Arriver)
		_, wantTimer := a.(mac.TimerHandler)
		_, gotArr := d.(mac.Arriver)
		_, gotTimer := d.(mac.TimerHandler)
		if gotArr != wantArr || gotTimer != wantTimer {
			t.Errorf("%T: decorator Arriver=%v TimerHandler=%v, want %v %v", a, gotArr, gotTimer, wantArr, wantTimer)
		}
	}
	for _, s := range []mac.Scheduler{plainSched{}, timerSched{}} {
		d := wrapScheduler(s, tr, nil)
		_, want := s.(mac.TimerScheduler)
		if _, got := d.(mac.TimerScheduler); got != want {
			t.Errorf("%T: decorator TimerScheduler=%v, want %v", s, got, want)
		}
	}
}

// TestSpansSubtractChildren nests spans the way an engine does — a
// scheduler timer delivers, Recv broadcasts into OnBcast — and checks that
// self times add up to the root total instead of double counting.
func TestSpansSubtractChildren(t *testing.T) {
	tr := &tracer{timed: true}
	outer, p := tr.begin()
	mid, p2 := tr.begin()
	inner, p3 := tr.begin()
	spin()
	tr.end(&tr.sched, inner, p3) // OnBcast
	spin()
	tr.end(&tr.automata, mid, p2) // Recv
	spin()
	tr.end(&tr.sched, outer, p) // OnTimer
	if tr.sched.self <= 0 || tr.automata.self <= 0 {
		t.Fatalf("self times %v %v", tr.sched.self, tr.automata.self)
	}
	if sum := tr.sched.self + tr.automata.self; sum != tr.child {
		t.Fatalf("self times sum to %v, root total %v", sum, tr.child)
	}
	if tr.sched.calls != 2 || tr.automata.calls != 1 {
		t.Fatalf("calls %d %d", tr.sched.calls, tr.automata.calls)
	}
}

func spin() {
	x := 0
	for i := 0; i < 100000; i++ {
		x += i
	}
	sink = x
}

var sink int

func TestParseReportFormats(t *testing.T) {
	single := `network    : rgg(n=4000) (n=4000, D=41, |E|=86880, |E'\E|=64444)
workload   : k=2 messages at time zero
algorithm  : bmmb (standard model)
scheduler  : sync(rel=bernoulli(0.50))
bounds     : Fprog=10 Fack=200 ticks
solved     : true (8000/8000 deliveries)
completion : 400 ticks (= 40.0 Fprog, 2.00 Fack)
broadcasts : 8000 instances over 23918 simulation events
model check: all guarantees hold (receive/ack correctness, termination, Fack bound, Fprog bound)
`
	rep, err := parseReport(single)
	if err != nil {
		t.Fatal(err)
	}
	want := trialStat{Solved: true, Completion: 400, Delivered: 8000, Required: 8000, Steps: 23918, Broadcasts: 8000}
	if rep.net != (network{N: 4000, Diameter: 41, Edges: 86880, GreyEdges: 64444}) || len(rep.trials) != 1 || rep.trials[0] != want || !rep.checkOK {
		t.Fatalf("single-trial report parsed as %+v", rep)
	}
	multi := `network    : rgg (n=150, D=9, |E|=523, |E'\E|=356)
trials     : 2 seeds starting at 7, 2 workers
  seed 7    : solved in 890 ticks (1200/1200 deliveries, 11241 events)
  seed 8    : UNSOLVED in 0 ticks (1100/1200 deliveries, 11568 events)
aggregate  : 1/2 solved, mean completion 890.0 ticks (4.45 Fack), worst 890, 22809 events total
`
	rep, err = parseReport(multi)
	if err != nil {
		t.Fatal(err)
	}
	wantTrials := []trialStat{
		{Seed: 7, Solved: true, Completion: 890, Delivered: 1200, Required: 1200, Steps: 11241},
		{Seed: 8, Delivered: 1100, Required: 1200, Steps: 11568},
	}
	if !slices.Equal(rep.trials, wantTrials) || rep.checkOK {
		t.Fatalf("per-seed report parsed as %+v", rep)
	}
	if _, err := parseReport("amacsim: boom\n"); err == nil {
		t.Fatal("a report without a network line parsed")
	}
}

// TestHeldOutSeedPassesGate runs both benchmark modes end to end on a seed
// that expected.json does not record, with the shortest measuring window.
func TestHeldOutSeedPassesGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds amacsim and runs every workload")
	}
	const seed = 4242
	for _, w := range workloads {
		if _, ok := expected[w.name]["4242"]; ok {
			t.Fatalf("seed %d is recorded for %s; pick another held-out seed", seed, w.name)
		}
	}
	t.Chdir("..")
	tmp := t.TempDir()
	bin, err := buildAmacsim(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, layered := range []bool{false, true} {
			var log bytes.Buffer
			b := &bench{w: w, seed: seed, seconds: 1, bin: bin, tmp: tmp, log: &log, metrics: map[string]metric{}}
			run := b.endToEnd
			if layered {
				run = b.layers
			}
			if err := run(); err != nil {
				t.Fatalf("%s: %v\n%s", w.name, err, log.String())
			}
			if !b.correct() || b.attempted == 0 {
				t.Fatalf("%s (layers=%v): gate failed: %v\n%s", w.name, layered, b.errors, log.String())
			}
			for name, m := range b.metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s = %v", w.name, name, m.Value)
				}
			}
			if _, err := json.Marshal(b.metrics); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSpecsArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, _ := w.specFor(11).JSON()
		b, _ := w.specFor(11).JSON()
		c, _ := w.specFor(12).JSON()
		if !bytes.Equal(a, b) || bytes.Equal(a, c) {
			t.Errorf("%s: spec is not a pure function of the seed", w.name)
		}
		if err := w.specFor(11).Validate(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if !strings.Contains(string(a), w.name) {
			t.Errorf("%s: spec name missing", w.name)
		}
	}
}
