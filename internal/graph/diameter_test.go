package graph

import (
	"math"
	"math/rand"
	"testing"
)

// bruteDiameter is the all-sources reference: one BFS per node over a plain
// adjacency list built from the edge set, sharing no code with Diameter.
func bruteDiameter(n int, edges [][2]NodeID) int {
	adj := make([][]NodeID, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	dist := make([]int, n)
	queue := make([]NodeID, 0, n)
	diam := 0
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], NodeID(src))
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			diam = max(diam, dist[u])
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return diam
}

// edgeSet collects edges under a random relabeling of the nodes, so the
// families below do not always present their structure in id order (the
// source tie-break falls back to ids).
type edgeSet struct {
	perm  []int
	edges [][2]NodeID
}

func newEdgeSet(n int, rng *rand.Rand) *edgeSet {
	return &edgeSet{perm: rng.Perm(n)}
}

func (es *edgeSet) add(u, v int) {
	if u != v {
		es.edges = append(es.edges, [2]NodeID{NodeID(es.perm[u]), NodeID(es.perm[v])})
	}
}

// randomFamilyGraph draws one graph of the given family with up to maxN
// nodes and returns its node count and edges.
func randomFamilyGraph(family string, maxN int, rng *rand.Rand) (int, [][2]NodeID) {
	n := 1 + rng.Intn(maxN)
	switch family {
	case "empty":
		return 0, nil
	case "single":
		return 1, nil
	case "isolated":
		return n, nil
	}
	es := newEdgeSet(n, rng)
	switch family {
	case "tree":
		for v := 1; v < n; v++ {
			es.add(rng.Intn(v), v)
		}
	case "sparse":
		for i := 0; i < n+rng.Intn(n+1); i++ {
			es.add(rng.Intn(n), rng.Intn(n))
		}
	case "dense":
		for i := 0; i < n*n/4; i++ {
			es.add(rng.Intn(n), rng.Intn(n))
		}
	case "cycle":
		// Odd and even lengths both occur; a few random chords on top.
		for v := 0; v < n; v++ {
			es.add(v, (v+1)%n)
		}
		for i := rng.Intn(4); i > 0; i-- {
			es.add(rng.Intn(n), rng.Intn(n))
		}
	case "star":
		for v := 1; v < n; v++ {
			es.add(0, v)
		}
	case "lollipop":
		clique := 1 + rng.Intn(n)
		for u := 0; u < clique; u++ {
			for v := u + 1; v < clique; v++ {
				es.add(u, v)
			}
		}
		for v := clique; v < n; v++ {
			es.add(v-1, v)
		}
	case "sparse-isolated":
		// A sparse graph on a random subset; the rest stay isolated.
		k := 1 + rng.Intn(n)
		for i := 0; i < k; i++ {
			es.add(rng.Intn(k), rng.Intn(k))
		}
	case "disconnected":
		// Small random components on the low ids, then a path that is the
		// widest component, placed last before relabeling.
		cut := rng.Intn(n)
		for i := 0; i < cut; i++ {
			es.add(rng.Intn(cut), rng.Intn(cut))
		}
		for v := cut + 1; v < n; v++ {
			es.add(v-1, v)
		}
	default:
		panic("unknown family " + family)
	}
	return n, es.edges
}

// TestDiameterMatchesBruteForce compares the bounded-eccentricity Diameter
// with the all-sources BFS reference on 12,100 seeded random graphs across
// families chosen for their eccentricity structure: trees, sparse and dense
// G(n,m), cycles with chords, stars, lollipops, isolated nodes, the empty
// and one-node graphs, and disconnected graphs whose widest component is not
// the first one.
func TestDiameterMatchesBruteForce(t *testing.T) {
	families := []string{"empty", "single", "isolated", "tree", "sparse", "dense",
		"cycle", "star", "lollipop", "sparse-isolated", "disconnected"}
	const perFamily = 1100
	for fi, family := range families {
		rng := rand.New(rand.NewSource(int64(1000 + fi)))
		for i := 0; i < perFamily; i++ {
			n, edges := randomFamilyGraph(family, 60, rng)
			g := New(n)
			for _, e := range edges {
				g.AddEdge(e[0], e[1])
			}
			if got, want := g.Diameter(), bruteDiameter(n, edges); got != want {
				t.Fatalf("%s graph %d (n=%d, edges %v): Diameter = %d, want %d", family, i, n, edges, got, want)
			}
		}
	}
}

// diameterSweeps runs the bounded-eccentricity search on g with a pooled
// scratch and returns the diameter and the number of BFS sweeps it used.
func diameterSweeps(g *Graph) (diam, sweeps int) {
	g.finalize()
	s := getScratch(g.n)
	defer putScratch(s)
	return g.boundedDiameter(s)
}

func grid(rows, cols int) *Graph {
	g := New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := NodeID(r*cols + c)
			if c+1 < cols {
				g.AddEdge(u, u+1)
			}
			if r+1 < rows {
				g.AddEdge(u, u+NodeID(cols))
			}
		}
	}
	return g
}

// disjointPaths returns k node-disjoint paths of length n each, path i on
// ids [i·n, (i+1)·n).
func disjointPaths(k, n int) *Graph {
	g := New(k * n)
	for p := 0; p < k; p++ {
		for v := 1; v < n; v++ {
			g.AddEdge(NodeID(p*n+v-1), NodeID(p*n+v))
		}
	}
	return g
}

// TestDiameterSweepBound pins the work: on meshes and paths the bounds
// close after a handful of BFS sweeps per component, not a number that
// grows with n. A search that starts badly or prunes too little (a
// midpoint-start iFUB needed about half of all nodes on a 316×316 grid)
// fails here while still returning the right value.
func TestDiameterSweepBound(t *testing.T) {
	const perComponent = 32
	cases := []struct {
		name  string
		g     *Graph
		diam  int
		comps int
	}{
		{"grid 100x100", grid(100, 100), 198, 1},
		{"path 20000", line(20000), 19999, 1},
		{"16 disjoint paths", disjointPaths(16, 2500), 2499, 16},
	}
	for _, c := range cases {
		diam, sweeps := diameterSweeps(c.g)
		if diam != c.diam {
			t.Fatalf("%s: diameter %d, want %d", c.name, diam, c.diam)
		}
		if sweeps > perComponent*c.comps {
			t.Fatalf("%s: %d BFS sweeps, want at most %d per component (%d components)", c.name, sweeps, perComponent, c.comps)
		}
	}
}

// TestDiameterAllocationFree: once the pool is warm, recomputing a diameter
// allocates nothing. Unpinned warm trials reach Diameter on every fresh
// network through ApproxDiameter.
func TestDiameterAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode drops sync.Pool puts at random, so the pooled scratch may allocate")
	}
	g := grid(20, 30)
	g.Diameter()
	allocs := testing.AllocsPerRun(20, func() {
		g.diamOK = false // drop the memo so every run searches again
		if d := g.Diameter(); d != 48 {
			t.Fatalf("Diameter = %d, want 48", d)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Diameter allocates %.1f times per run, want 0", allocs)
	}
}

// unitDisk returns the unit-disk graph of n uniform points in a side×side
// square: the reliable graph G of the rgg family.
func unitDisk(n int, side float64, rng *rand.Rand) *Graph {
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*side, rng.Float64()*side
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if dx, dy := xs[u]-xs[v], ys[u]-ys[v]; dx*dx+dy*dy <= 1 {
				g.AddEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g
}

// BenchmarkDiameter times one uncached exact diameter per op on a mesh, on
// the reliable graph of a 3000-node grey-zone rgg at the density of the
// README's large-n rgg (side 26.1·√(n/10⁴)), and on 16 disjoint paths.
func BenchmarkDiameter(b *testing.B) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"grid316x316", grid(316, 316)},
		{"rgg3000", unitDisk(3000, 26.1*math.Sqrt(3000/1e4), rand.New(rand.NewSource(1)))},
		{"paths16x2500", disjointPaths(16, 2500)},
	}
	for _, c := range cases {
		want := c.g.Diameter()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.g.diamOK = false // drop the memo so every op searches again
				if d := c.g.Diameter(); d != want {
					b.Fatalf("Diameter = %d, want %d", d, want)
				}
			}
		})
	}
}
