package main

import (
	"fmt"
	"time"

	"amac/internal/graph"
	"amac/internal/mac"
	"amac/internal/sim"
)

// This file holds the traced run's instrumentation: decorators that wrap
// the scheduler, the automata and the trace sink handed to core.Runner, and
// the tracer they report to. Spans are recorded from the benchmark's side
// of each layer boundary; nothing inside the program is instrumented.

// layer accumulates one layer's self time and call count.
type layer struct {
	self  time.Duration
	calls int64
}

// tracer is the span stack and counters of one engine timeline. Spans nest
// — a scheduler timer delivers, the delivery calls Recv, Recv may Bcast
// into OnBcast, and every emitted event reaches the sink — so a span's self
// time is its duration minus the time of its child spans. child holds the
// total duration of the finished children of the innermost open span; at
// the root, once no span is open, it is the total time spent inside
// decorated calls.
//
// A tracer is used by one goroutine at a time: single-engine runs have one,
// the component-sharded executor one per G′ component, since each
// component runs start to finish on one shard worker.
type tracer struct {
	timed bool // false: count calls only, never read the clock
	child time.Duration

	sched, automata, sink layer

	bcasts, aborts, rcv, rcvGrey int64
}

// begin opens a span, returning its start and the enclosing span's child
// total, which end restores.
func (t *tracer) begin() (time.Time, time.Duration) {
	if !t.timed {
		return time.Time{}, 0
	}
	saved := t.child
	t.child = 0
	return time.Now(), saved
}

// end closes the span opened by begin and charges its self time to l.
func (t *tracer) end(l *layer, start time.Time, saved time.Duration) {
	l.calls++
	if !t.timed {
		return
	}
	d := time.Since(start)
	l.self += d - t.child
	t.child = saved + d
}

// tracers assigns every node the tracer of the engine that executes it.
type tracers struct {
	list   []*tracer
	compOf []int // node -> index into list; nil when one tracer serves all
}

// newTracers returns one tracer per G′ component when the run is sharded
// (sharded is true and G′ has several components), and a single tracer
// otherwise.
func newTracers(gprime *graph.Graph, sharded, timed bool) *tracers {
	ts := &tracers{}
	comps := [][]graph.NodeID{nil}
	if sharded {
		if cs := gprime.Components(); len(cs) > 1 {
			comps = cs
			ts.compOf = make([]int, gprime.N())
			for c, nodes := range cs {
				for _, v := range nodes {
					ts.compOf[v] = c
				}
			}
		}
	}
	for range comps {
		ts.list = append(ts.list, &tracer{timed: timed})
	}
	return ts
}

// of returns the tracer of node v's engine.
func (ts *tracers) of(v mac.NodeID) *tracer {
	if ts.compOf == nil {
		return ts.list[0]
	}
	return ts.list[ts.compOf[v]]
}

// add accumulates another tracer's counters and self times.
func (t *tracer) add(o *tracer) {
	t.sched.self += o.sched.self
	t.sched.calls += o.sched.calls
	t.automata.self += o.automata.self
	t.automata.calls += o.automata.calls
	t.sink.self += o.sink.self
	t.sink.calls += o.sink.calls
	t.bcasts += o.bcasts
	t.aborts += o.aborts
	t.rcv += o.rcv
	t.rcvGrey += o.rcvGrey
}

// tracedAutomaton times and counts an automaton's callbacks. It implements
// only mac.Automaton; wrapAutomaton adds mac.Arriver and mac.TimerHandler
// exactly when the wrapped automaton has them, because the engine
// type-asserts both.
type tracedAutomaton struct {
	inner mac.Automaton
	t     *tracer
	g     *graph.Graph // reliable graph G, to tell grey receives apart
}

func (a *tracedAutomaton) Wakeup(ctx mac.Context) {
	s, p := a.t.begin()
	a.inner.Wakeup(ctx)
	a.t.end(&a.t.automata, s, p)
}

func (a *tracedAutomaton) Recv(ctx mac.Context, m mac.Message) {
	a.t.rcv++
	if !a.g.HasEdge(m.Sender, ctx.ID()) {
		a.t.rcvGrey++
	}
	s, p := a.t.begin()
	a.inner.Recv(ctx, m)
	a.t.end(&a.t.automata, s, p)
}

func (a *tracedAutomaton) Acked(ctx mac.Context, m mac.Message) {
	s, p := a.t.begin()
	a.inner.Acked(ctx, m)
	a.t.end(&a.t.automata, s, p)
}

type arriverAutomaton struct {
	*tracedAutomaton
	arr mac.Arriver
}

func (a arriverAutomaton) Arrive(ctx mac.Context, payload mac.Payload) {
	s, p := a.t.begin()
	a.arr.Arrive(ctx, payload)
	a.t.end(&a.t.automata, s, p)
}

type timerAutomaton struct {
	*tracedAutomaton
	th mac.TimerHandler
}

func (a timerAutomaton) Timer(ctx mac.EnhancedContext, tag any) {
	s, p := a.t.begin()
	a.th.Timer(ctx, tag)
	a.t.end(&a.t.automata, s, p)
}

type arriverTimerAutomaton struct {
	arriverAutomaton
	th mac.TimerHandler
}

func (a arriverTimerAutomaton) Timer(ctx mac.EnhancedContext, tag any) {
	s, p := a.t.begin()
	a.th.Timer(ctx, tag)
	a.t.end(&a.t.automata, s, p)
}

// wrapAutomaton decorates node v's automaton.
func wrapAutomaton(inner mac.Automaton, t *tracer, g *graph.Graph) mac.Automaton {
	base := &tracedAutomaton{inner: inner, t: t, g: g}
	arr, isArr := inner.(mac.Arriver)
	th, isTimer := inner.(mac.TimerHandler)
	switch {
	case isArr && isTimer:
		return arriverTimerAutomaton{arriverAutomaton{base, arr}, th}
	case isArr:
		return arriverAutomaton{base, arr}
	case isTimer:
		return timerAutomaton{base, th}
	default:
		return base
	}
}

// tracedScheduler times and counts OnBcast, OnAbort and (through
// timerScheduler) OnTimer. Under the sharded executor every component
// engine gets its own scheduler instance, and the decorator binds to that
// component's tracer at its first broadcast: the shipped schedulers arm
// timers only in response to a broadcast, so nothing is timed before then.
type tracedScheduler struct {
	inner mac.Scheduler
	t     *tracer
	ts    *tracers
}

func (s *tracedScheduler) Name() string       { return s.inner.Name() }
func (s *tracedScheduler) Attach(api mac.API) { s.inner.Attach(api) }

func (s *tracedScheduler) bind(v mac.NodeID) {
	if s.t == nil {
		s.t = s.ts.of(v)
	}
}

func (s *tracedScheduler) OnBcast(b *mac.Instance) {
	s.bind(b.Sender)
	s.t.bcasts++
	st, p := s.t.begin()
	s.inner.OnBcast(b)
	s.t.end(&s.t.sched, st, p)
}

func (s *tracedScheduler) OnAbort(b *mac.Instance) {
	s.bind(b.Sender)
	s.t.aborts++
	st, p := s.t.begin()
	s.inner.OnAbort(b)
	s.t.end(&s.t.sched, st, p)
}

type timerScheduler struct {
	*tracedScheduler
	timer mac.TimerScheduler
}

func (s timerScheduler) OnTimer(obj any, a, b int64) {
	if s.t == nil {
		panic(fmt.Sprintf("perfbench: %s timer fired before its engine's first broadcast; cannot attribute it to a shard", s.inner.Name()))
	}
	st, p := s.t.begin()
	s.timer.OnTimer(obj, a, b)
	s.t.end(&s.t.sched, st, p)
}

// wrapScheduler decorates a scheduler. t is the tracer to report to, or nil
// to bind lazily through ts at the first broadcast (sharded runs).
func wrapScheduler(inner mac.Scheduler, t *tracer, ts *tracers) mac.Scheduler {
	base := &tracedScheduler{inner: inner, t: t, ts: ts}
	if tsch, ok := inner.(mac.TimerScheduler); ok {
		return timerScheduler{base, tsch}
	}
	return base
}

// tracedSink times and counts trace events written to a sink.
type tracedSink struct {
	inner sim.TraceSink
	t     *tracer
}

func (s *tracedSink) Append(ev sim.TraceEvent) {
	st, p := s.t.begin()
	s.inner.Append(ev)
	s.t.end(&s.t.sink, st, p)
}
