package harness

import "amac/internal/par"

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
	par.For(o.Parallelism, points*o.Trials, func(i int) {
		p, tr := i/o.Trials, i%o.Trials
		out[p][tr] = run(p, o.Seed+int64(tr))
	})
	return out
}
