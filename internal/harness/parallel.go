package harness

import "amac/internal/par"

// ParallelFor runs fn(i) for every i in [0, n) using up to p concurrent
// workers and returns when all have finished; p <= 1 (or n <= 1) runs
// inline. Work is handed out through an atomic index, so the set of indices
// executed is exactly [0, n) at any parallelism. A panic in any worker is
// re-raised in the caller once the pool drains. The implementation lives in
// package par, shared with the scenario runner.
func ParallelFor(p, n int, fn func(i int)) { par.For(p, n, fn) }

// collectTrials evaluates run for every (point, trial) pair of a sweep on
// the options' worker pool and returns results[point][trial]. Each task is
// an independent deterministic simulation keyed by its seed, so the matrix
// is a pure function of (Options, run) regardless of Parallelism; callers
// must reduce it in index order to keep rendered tables byte-identical to a
// sequential run.
func collectTrials[T any](o Options, points int, run func(point int, seed int64) T) [][]T {
	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, o.Trials)
	}
	ParallelFor(o.Parallelism, points*o.Trials, func(i int) {
		p, tr := i/o.Trials, i%o.Trials
		out[p][tr] = run(p, o.Seed+int64(tr))
	})
	return out
}

// pointMeans evaluates run across the sweep and returns the per-point trial
// means, reduced in deterministic index order.
func pointMeans(o Options, points int, run func(point int, seed int64) float64) []float64 {
	vals := collectTrials(o, points, run)
	means := make([]float64, points)
	for p := range vals {
		var sum float64
		for _, v := range vals[p] {
			sum += v
		}
		means[p] = sum / float64(o.Trials)
	}
	return means
}
