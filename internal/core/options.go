package core

import (
	"errors"
	"fmt"

	"amac/internal/sim"
)

// TraceMode selects how a run records its execution trace.
type TraceMode int

const (
	// TraceMemory (the default) keeps the full trace in memory on
	// Result.Trace. Required when Check is set: checkers replay the
	// recorded events.
	TraceMemory TraceMode = iota
	// TraceStream appends every event to RunOptions.Sink as it happens and
	// keeps nothing in memory — the path for networks whose trace cannot be
	// held in RAM (pair with a sim.TraceWriter).
	TraceStream
	// TraceOff disables trace recording entirely — the throughput fast
	// path. Watchers attached by the runner still observe events.
	TraceOff
)

// String returns the scenario-JSON spelling of the mode.
func (m TraceMode) String() string {
	switch m {
	case TraceMemory:
		return "memory"
	case TraceStream:
		return "stream"
	case TraceOff:
		return "off"
	default:
		return fmt.Sprintf("TraceMode(%d)", int(m))
	}
}

// ParseTraceMode parses the scenario-JSON spelling of a trace mode.
func ParseTraceMode(s string) (TraceMode, error) {
	switch s {
	case "", "memory":
		return TraceMemory, nil
	case "stream":
		return TraceStream, nil
	case "off":
		return TraceOff, nil
	default:
		return 0, fmt.Errorf("unknown trace mode %q (want memory, stream, or off)", s)
	}
}

// RunOptions is the unified observation/verification/parallelism block of a
// RunConfig. It replaces the former NoTrace/Sink/Check trio whose
// interactions were silent-precedence prose; illegal combinations now fail
// validation with descriptive errors instead of being quietly reinterpreted.
type RunOptions struct {
	// Trace selects memory (default), stream, or off.
	Trace TraceMode
	// Sink receives every trace event when Trace is TraceStream. Required
	// then, forbidden otherwise.
	Sink sim.TraceSink
	// Check verifies the execution against the abstract MAC layer
	// guarantees and the MMB correctness conditions after the run. Requires
	// Trace == TraceMemory (checkers replay the recorded trace).
	Check bool
	// Shards enables the decomposed executor: the network is carved into
	// G′-component shards, each run on its own engine, with at most Shards
	// of them executing concurrently. 0 (the default) keeps the legacy
	// single-engine executor; any value ≥ 1 selects decomposed semantics,
	// whose output is a pure function of the configuration — byte-identical
	// at every shard count. A connected network degenerates to the legacy
	// execution, so for those the two semantics coincide exactly.
	Shards int
	// Regions selected the windowed-region executor, which was removed;
	// Validate rejects any non-zero value.
	//
	// Deprecated: drop it. The field remains only because perfbench still
	// copies it from scenario specs; delete it once perfbench stops.
	Regions int
}

// Validate reports the first illegal combination, or nil.
func (o RunOptions) Validate() error {
	if o.Trace < TraceMemory || o.Trace > TraceOff {
		return fmt.Errorf("core: invalid trace mode %d", int(o.Trace))
	}
	if o.Trace == TraceStream && o.Sink == nil {
		return errors.New("core: Trace=stream requires a Sink")
	}
	if o.Trace != TraceStream && o.Sink != nil {
		return fmt.Errorf("core: Sink set but Trace=%s (only Trace=stream streams to a sink)", o.Trace)
	}
	if o.Check && o.Trace != TraceMemory {
		return fmt.Errorf("core: Check requires Trace=memory (checkers replay the in-memory trace), got Trace=%s", o.Trace)
	}
	if o.Shards < 0 {
		return fmt.Errorf("core: negative Shards %d", o.Shards)
	}
	if o.Regions != 0 {
		return errors.New("core: the windowed-region executor was removed; drop Regions")
	}
	return nil
}
