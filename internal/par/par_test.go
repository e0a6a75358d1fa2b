package par

import (
	"sync/atomic"
	"testing"
)

// TestForCoversAllIndices checks the pool executes every index exactly once
// at various widths.
func TestForCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 2, 7, 64} {
		const n = 37
		var counts [n]atomic.Int32
		For(p, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("p=%d: index %d ran %d times", p, i, got)
			}
		}
	}
}

// TestForPropagatesPanic checks a worker panic resurfaces in the caller
// instead of crashing the process from a goroutine.
func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	For(4, 16, func(i int) {
		if i == 11 {
			panic("boom")
		}
	})
}
