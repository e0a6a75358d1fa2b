package graph

import (
	"math"
	"slices"
	"sync"
)

// Unreachable is the distance reported for nodes in a different connected
// component.
const Unreachable = -1

// bfsScratch is the frontier/visited storage behind the BFS-family queries.
// The buffers are pooled rather than hung off the Graph because finished
// graphs are shared read-only across parallel harness workers: per-graph
// scratch would make concurrent Diameter/IsConnected calls race, while a
// pooled scratch is exclusively owned between get and put. Connectivity
// probes run once per rejected draw inside the random-topology builders, so
// steady-state sweeps must not pay an allocation here.
//
// lo, hi and cand are Diameter's eccentricity bounds and candidate list,
// grown separately (growEcc) so the connectivity probes never pay for them.
type bfsScratch struct {
	dist  []int
	queue []NodeID
	lo    []int
	hi    []int
	cand  []NodeID
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// getScratch returns a scratch with capacity for n nodes. dist contents are
// stale; callers reset the entries they rely on (resetDist, or restoring
// visited entries after each walk).
//
//amac:hotpath
func getScratch(n int) *bfsScratch {
	s := bfsPool.Get().(*bfsScratch)
	if cap(s.dist) < n {
		s.dist = make([]int, n)        //lint:hotalloc lazy grow: runs once per pool entry per graph size, then every warm call reuses the block
		s.queue = make([]NodeID, 0, n) //lint:hotalloc lazy grow, same lifetime as dist above
	}
	s.dist = s.dist[:n]
	return s
}

func putScratch(s *bfsScratch) { bfsPool.Put(s) }

// growEcc sizes the eccentricity-bound arrays for n nodes. Contents are
// stale; Diameter initializes them per component.
//
//amac:hotpath
func (s *bfsScratch) growEcc(n int) {
	if cap(s.lo) < n {
		s.lo = make([]int, n)         //lint:hotalloc lazy grow: runs once per pool entry per graph size, then every warm Diameter reuses the block
		s.hi = make([]int, n)         //lint:hotalloc lazy grow, same lifetime as lo above
		s.cand = make([]NodeID, 0, n) //lint:hotalloc lazy grow, same lifetime as lo above
	}
	s.lo, s.hi = s.lo[:n], s.hi[:n]
}

func resetDist(dist []int) {
	for i := range dist {
		dist[i] = Unreachable
	}
}

// bfsInto walks the component of src, writing hop distances into dist —
// whose entries must be Unreachable beforehand — and returns the visited
// nodes in traversal order in queue's storage. The graph must be finalized
// (every public entry point below finalizes first).
//
//amac:hotpath
func (g *Graph) bfsInto(src NodeID, dist []int, queue []NodeID) []NodeID {
	dist[src] = 0
	queue = append(queue[:0], src)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, v := range g.row(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// BFS returns the hop distance from src to every node; Unreachable for nodes
// in other components.
func (g *Graph) BFS(src NodeID) []int {
	g.check(src)
	g.finalize()
	dist := make([]int, g.n)
	resetDist(dist)
	s := getScratch(g.n)
	s.queue = g.bfsInto(src, dist, s.queue)
	putScratch(s)
	return dist
}

// Dist returns the hop distance dG(u, v), or Unreachable when disconnected.
func (g *Graph) Dist(u, v NodeID) int {
	g.check(u)
	g.check(v)
	g.finalize()
	s := getScratch(g.n)
	defer putScratch(s)
	resetDist(s.dist)
	s.queue = g.bfsInto(u, s.dist, s.queue)
	return s.dist[v]
}

// Eccentricity returns the maximum finite BFS distance from src (distance to
// the farthest node in src's component).
func (g *Graph) Eccentricity(src NodeID) int {
	g.check(src)
	g.finalize()
	s := getScratch(g.n)
	defer putScratch(s)
	resetDist(s.dist)
	s.queue = g.bfsInto(src, s.dist, s.queue)
	max := 0
	for _, v := range s.queue {
		if d := s.dist[v]; d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the maximum eccentricity over all nodes, considering only
// intra-component distances. For an empty graph it returns 0. The result is
// memoized until the next mutation (runners recompute the diameter of the
// same network for every execution); the memo is lock-guarded because
// finished graphs are shared read-only across parallel harness workers.
//
// The value is exact, found per component by bounding eccentricities
// (Takes & Kosters, "Determining the diameter of small world networks",
// CIKM 2011) rather than by a BFS from every node; see boundedDiameter.
func (g *Graph) Diameter() int {
	g.finalize()
	g.diamMu.Lock()
	defer g.diamMu.Unlock()
	if g.diamOK {
		return g.diam
	}
	s := getScratch(g.n)
	d, _ := g.boundedDiameter(s)
	putScratch(s)
	g.diam, g.diamOK = d, true
	return d
}

// unvisited marks, in bfsScratch.hi, a node whose component boundedDiameter
// has not reached yet; every reached node holds a bound >= 0.
const unvisited = -1

// boundedDiameter returns the diameter of the finalized graph and the number
// of BFS sweeps it took, summed over components (the count exists for the
// work-bound tests). Each component is solved by componentDiameter, rooted at
// its smallest node id.
func (g *Graph) boundedDiameter(s *bfsScratch) (diam, sweeps int) {
	s.growEcc(g.n)
	resetDist(s.dist)
	for i := range s.hi {
		s.hi[i] = unvisited
	}
	for root := 0; root < g.n; root++ {
		if s.hi[root] != unvisited {
			continue
		}
		d, k := g.componentDiameter(NodeID(root), s)
		diam = max(diam, d)
		sweeps += k
	}
	return diam, sweeps
}

// componentDiameter computes the exact diameter of root's component. Every
// node w keeps bounds lo[w] <= ecc(w) <= hi[w]; a BFS from v with
// eccentricity e tightens them by the triangle inequality:
//
//	lo[w] = max(lo[w], d(v,w), e-d(v,w))    hi[w] = min(hi[w], e+d(v,w))
//
// The largest eccentricity seen so far, diam, is a diameter lower bound. A
// node can still raise it only while hi[w] > diam and its eccentricity is
// not yet pinned (lo[w] != hi[w]); every other node leaves the candidate
// list for good, since diam only grows and hi only shrinks. Each sweep pins
// its own source, so the loop ends, and once the list is empty no node's
// eccentricity exceeds diam. Sources alternate between the candidate with
// the largest upper bound (a far node, raising best) and the one with the
// smallest lower bound (a central node, whose small eccentricity cuts the
// upper bounds); ties go to the higher degree, then the lower id. The
// discovery BFS from root is the first sweep. It returns the diameter and
// the number of sweeps.
func (g *Graph) componentDiameter(root NodeID, s *bfsScratch) (diam, sweeps int) {
	dist, lo, hi := s.dist, s.lo, s.hi
	s.queue = g.bfsInto(root, dist, s.queue)
	cand := append(s.cand[:0], s.queue...)
	for _, w := range cand {
		lo[w], hi[w] = 0, math.MaxInt
	}
	far := true
	for {
		sweeps++
		e := dist[s.queue[len(s.queue)-1]] // BFS order ends at a farthest node
		diam = max(diam, e)
		keep := cand[:0]
		next := NodeID(-1)
		for _, w := range cand {
			d := dist[w]
			l, h := max(lo[w], d, e-d), min(hi[w], e+d)
			lo[w], hi[w] = l, h
			if h <= diam || l == h {
				continue
			}
			keep = append(keep, w)
			if next < 0 || g.preferSource(w, next, lo, hi, far) {
				next = w
			}
		}
		cand = keep
		for _, w := range s.queue {
			dist[w] = Unreachable // restore for the next sweep
		}
		if next < 0 {
			break
		}
		s.queue = g.bfsInto(next, dist, s.queue)
		far = !far
	}
	s.cand = cand
	return diam, sweeps
}

// preferSource reports whether candidate w beats the current pick: by the
// larger upper bound when far is set, by the smaller lower bound otherwise,
// then by the higher degree, then by the lower id.
func (g *Graph) preferSource(w, cur NodeID, lo, hi []int, far bool) bool {
	if far && hi[w] != hi[cur] {
		return hi[w] > hi[cur]
	}
	if !far && lo[w] != lo[cur] {
		return lo[w] < lo[cur]
	}
	dw, dc := g.off[w+1]-g.off[w], g.off[cur+1]-g.off[cur]
	if dw != dc {
		return dw > dc
	}
	return w < cur
}

// Components returns the connected components as slices of node IDs, each
// sorted, ordered by smallest member.
func (g *Graph) Components() [][]NodeID {
	g.finalize()
	s := getScratch(g.n)
	resetDist(s.dist)
	var comps [][]NodeID
	for u := 0; u < g.n; u++ {
		if s.dist[u] != Unreachable {
			continue
		}
		s.queue = g.bfsInto(NodeID(u), s.dist, s.queue)
		comp := append([]NodeID(nil), s.queue...)
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	putScratch(s)
	return comps
}

// IsConnected reports whether g has exactly one connected component (true
// for the empty and single-node graphs). A single BFS from node 0 — no
// component materialization, because the random-topology builders probe
// connectivity on every rejected draw.
//
//amac:hotpath
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	g.finalize()
	s := getScratch(g.n)
	defer putScratch(s)
	resetDist(s.dist)
	s.queue = g.bfsInto(0, s.dist, s.queue)
	return len(s.queue) == g.n
}

// Ball returns all nodes within r hops of center (including center), sorted.
// It matches the paper's N_G^r(j) notation.
func (g *Graph) Ball(center NodeID, r int) []NodeID {
	g.check(center)
	g.finalize()
	dist := map[NodeID]int{center: 0}
	queue := []NodeID{center}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == r {
			continue
		}
		for _, v := range g.row(u) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make([]NodeID, 0, len(dist))
	for v := range dist {
		out = append(out, v)
	}
	sortNodeIDs(out)
	return out
}

// Power returns Gʳ: the graph on the same nodes with an edge between every
// pair at hop distance in [1, r] in g (Section 3.2 of the paper; no
// self-loops).
func (g *Graph) Power(r int) *Graph { return g.PowerInto(r, New(g.n)) }

// PowerInto builds Gʳ into dst, reusing dst's adjacency storage (see Reset),
// and returns dst. The r-balls are walked with a bounded BFS over two
// scratch slices shared by all n source walks of the call — two allocations
// per call instead of Ball's map per node; the resulting edge set is
// identical to Power's.
func (g *Graph) PowerInto(r int, dst *Graph) *Graph {
	if r < 1 {
		panic("graph: power exponent must be >= 1")
	}
	if dst == g {
		panic("graph: PowerInto onto its own receiver")
	}
	g.finalize()
	dst.Reset(g.n)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]NodeID, 0, g.n)
	for u := 0; u < g.n; u++ {
		dist[u] = 0
		queue = append(queue[:0], NodeID(u))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == r {
				continue
			}
			for _, w := range g.row(v) {
				if dist[w] == Unreachable {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for _, v := range queue {
			if v != NodeID(u) {
				dst.AddEdge(NodeID(u), v)
			}
			dist[v] = Unreachable
		}
	}
	return dst
}

func sortNodeIDs(s []NodeID) {
	slices.Sort(s)
}
