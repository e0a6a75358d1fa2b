package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(10, func() { got = append(got, 2) })
	e.At(5, func() { got = append(got, 1) })
	e.At(10, func() { got = append(got, 3) }) // same time: insertion order
	e.At(20, func() { got = append(got, 4) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.At(1, func() {
		fired = append(fired, e.Now())
		e.After(3, func() { fired = append(fired, e.Now()) })
		e.After(1, func() { fired = append(fired, e.Now()) })
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{1, 2, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	_ = e.Run()
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.At(10, func() { ran = true })
	if !h.Active() {
		t.Fatal("handle should be active before firing")
	}
	h.Cancel()
	if h.Active() {
		t.Fatal("handle should be inactive after cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	if err := e.Run(); err != ErrHalted {
		t.Fatalf("Run err = %v, want ErrHalted", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for i := 1; i <= 10; i++ {
		tt := Time(i * 10)
		e.At(tt, func() { fired = append(fired, tt) })
	}
	e.SetHorizon(50)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 5 || fired[len(fired)-1] != 50 {
		t.Fatalf("fired = %v, want events through t=50", fired)
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.After(1, reschedule)
	}
	e.At(0, reschedule)
	e.SetStepLimit(100)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired int
	for i := 1; i <= 10; i++ {
		e.At(Time(i), func() { fired++ })
	}
	e.RunUntil(4)
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
	e.RunUntil(100)
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var draws []int64
		var tick func()
		n := 0
		tick = func() {
			draws = append(draws, e.Rand().Int63n(1000))
			n++
			if n < 50 {
				e.After(Duration(1+e.Rand().Int63n(5)), tick)
			}
		}
		e.At(0, tick)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return draws
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("len %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %d != %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical executions")
	}
}

func TestForkIndependence(t *testing.T) {
	e := NewEngine(7)
	r1, r2 := e.Fork(1), e.Fork(2)
	r1b := e.Fork(1)
	a, b := r1.Int63(), r2.Int63()
	if a == b {
		t.Fatal("forked streams with different ids produced equal first draw")
	}
	if got := r1b.Int63(); got != a {
		t.Fatalf("fork with same id not reproducible: %d vs %d", got, a)
	}
}

// Property: the event queue pops events in non-decreasing (time, seq) order
// for arbitrary insertion sequences.
func TestQueueHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q eventQueue
		for i, tt := range times {
			q.push(&event{at: Time(tt), seq: uint64(i)})
		}
		prevAt, prevSeq := Time(-1), uint64(0)
		for q.Len() > 0 {
			ev := q.pop()
			if ev.at < prevAt {
				return false
			}
			if ev.at == prevAt && ev.seq < prevSeq {
				return false
			}
			prevAt, prevSeq = ev.at, ev.seq
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop maintains heap order.
func TestQueueInterleavedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var q eventQueue
	seq := uint64(0)
	lastPopped := Time(-1)
	for i := 0; i < 10000; i++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			// Push at a time not before the last popped event (causality).
			at := lastPopped + Time(rng.Intn(100))
			if at < 0 {
				at = 0
			}
			q.push(&event{at: at, seq: seq})
			seq++
		} else {
			ev := q.pop()
			if ev.at < lastPopped {
				t.Fatalf("popped %v after %v", ev.at, lastPopped)
			}
			lastPopped = ev.at
		}
	}
}

func TestTraceFilter(t *testing.T) {
	var tr Trace
	tr.Append(TraceEvent{Kind: "a", Node: 1})
	tr.Append(TraceEvent{Kind: "b", Node: 2})
	tr.Append(TraceEvent{Kind: "a", Node: 3})
	got := tr.Filter("a")
	if len(got) != 2 || got[0].Node != 1 || got[1].Node != 3 {
		t.Fatalf("Filter = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	if Infinity.String() != "inf" {
		t.Fatalf("Infinity.String() = %q", Infinity.String())
	}
	if Time(42).String() != "t42" {
		t.Fatalf("Time(42).String() = %q", Time(42).String())
	}
}
