package scenario

import (
	"amac/internal/mac"
)

// fleetPoolFloor keeps a small pool even for tiny fleets, mirroring the
// event free-list floor in internal/sim.
const fleetPoolFloor = 64

// fleetPool caches built fleets by node count for a trialWorker, whose
// successive unpinned trials draw networks of varying size. A trial that
// needs a fleet of n automata takes the pooled one for n (if its algorithm
// can Refit it to the new draw), resets it, and parks it again afterwards;
// only size misses pay fleet construction. Pinned trials always take back
// the fleet of the one network they run on.
//
// The pool is bounded like the simulator's event free list: after each park,
// pooled automata in excess of 2×live+fleetPoolFloor — live being the size
// of the fleet just retired — are evicted oldest-first, so a sweep that
// wanders from large draws to small ones releases the large fleets instead
// of pinning them for its whole lifetime.
//
// Pools are per worker, so no locking is needed; the zero value is ready to
// use.
type fleetPool struct {
	byN   map[int][]mac.Automaton
	order []int // sizes in insertion order, oldest first
	total int   // automata across all pooled fleets
}

// fleetFor returns a fleet for the plan's draw: the pooled fleet of matching
// size, refitted to the draw when refit is set (a fleet pooled from the same
// network needs none), reset, or a freshly built one.
func (fp *fleetPool) fleetFor(p *trialPlan, refit bool) ([]mac.Automaton, error) {
	n := p.built.Dual.N()
	if fleet := fp.take(n); fleet != nil {
		ok := true
		if refit && p.alg.Refit != nil {
			ok = p.alg.Refit(fleet, p.built.Dual, p.k, p.spec.Algorithm.Params)
		}
		if ok {
			for _, a := range fleet {
				a.(mac.Resettable).Reset()
			}
			return fleet, nil
		}
		// The pooled fleet cannot be adapted to this draw; drop it.
	}
	return p.newFleet()
}

// take removes and returns the pooled fleet of exactly n automata, or nil.
func (fp *fleetPool) take(n int) []mac.Automaton {
	fleet := fp.byN[n]
	if fleet == nil {
		return nil
	}
	delete(fp.byN, n)
	fp.total -= len(fleet)
	for i, sz := range fp.order {
		if sz == n {
			fp.order = append(fp.order[:i], fp.order[i+1:]...)
			break
		}
	}
	return fleet
}

// put parks a retired fleet for reuse, then evicts oldest entries until the
// pool holds at most 2×len(fleet)+fleetPoolFloor automata. Fleets whose
// automata cannot Reset are not poolable and are dropped.
func (fp *fleetPool) put(fleet []mac.Automaton) {
	if len(fleet) == 0 || !fleetResettable(fleet) {
		return
	}
	n := len(fleet)
	if fp.byN == nil {
		fp.byN = make(map[int][]mac.Automaton)
	}
	if old := fp.byN[n]; old != nil {
		// Same size already pooled: keep the newer fleet, which just ran and
		// has warm per-automaton storage for this draw shape.
		fp.take(n)
	}
	fp.byN[n] = fleet
	fp.order = append(fp.order, n)
	fp.total += n

	bound := 2*n + fleetPoolFloor
	for fp.total > bound && len(fp.order) > 1 {
		oldest := fp.order[0]
		if oldest == n {
			// Never evict the fleet just parked; it is the likeliest match
			// for the worker's next trial.
			if len(fp.order) == 1 {
				break
			}
			oldest = fp.order[1]
		}
		fp.take(oldest)
	}
}

// fleetResettable reports whether every automaton of the fleet can be
// restored for reuse.
func fleetResettable(fleet []mac.Automaton) bool {
	for _, a := range fleet {
		if _, ok := a.(mac.Resettable); !ok {
			return false
		}
	}
	return true
}
