// Package topo generates and inspects sensor-network topologies.
//
// A Topology is a set of node positions plus a neighbor relation induced by
// a communication range. Node 0 is always the sink. Generators produce the
// layouts used throughout the WSN literature: a grid with placement jitter
// (dense testbed), uniform random placement over a square (ad-hoc field
// deployment) and a corridor (long, thin multi-hop network that stresses
// path length).
package topo

import (
	"fmt"
	"math"
	"sort"

	"dophy/internal/rng"
)

// NodeID identifies a node. The sink is always NodeID 0.
type NodeID int

// Sink is the collection root of every topology.
const Sink NodeID = 0

// Point is a 2-D position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Topology is an immutable node layout with a precomputed neighbor relation.
type Topology struct {
	Pos       []Point    // indexed by NodeID
	Range     float64    // communication range in meters
	neighbors [][]NodeID // sorted adjacency lists
	lt        *LinkTable // dense enumeration of the directed links
}

// LinkTable returns the topology's dense link enumeration. The table is
// built once at construction and shared; callers must not mutate it.
func (t *Topology) LinkTable() *LinkTable { return t.lt }

// N returns the number of nodes including the sink.
func (t *Topology) N() int { return len(t.Pos) }

// Neighbors returns the (sorted, read-only) neighbor list of id.
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.neighbors[id] }

// Adjacent reports whether a and b are within communication range.
func (t *Topology) Adjacent(a, b NodeID) bool {
	if a == b {
		return false
	}
	return Dist(t.Pos[a], t.Pos[b]) <= t.Range
}

// Distance returns the Euclidean distance between two nodes.
func (t *Topology) Distance(a, b NodeID) float64 {
	return Dist(t.Pos[a], t.Pos[b])
}

// bucketedBuildMinNodes is the node count above which build switches from
// the O(n^2) pairwise scan to the commRange-sized cell index. Both paths
// perform the identical Dist <= commRange comparisons and sort each list,
// so the resulting adjacency is byte-identical; the threshold only trades
// obviousness for asymptotics once n^2 starts to hurt.
const bucketedBuildMinNodes = 2048

// build computes adjacency lists from positions and range.
func build(pos []Point, commRange float64) *Topology {
	t := &Topology{Pos: pos, Range: commRange}
	if len(pos) > bucketedBuildMinNodes && commRange > 0 {
		t.neighbors = neighborsBucketed(pos, commRange)
	} else {
		t.neighbors = neighborsPairwise(pos, commRange)
	}
	t.lt = newLinkTable(t.neighbors)
	return t
}

// neighborsPairwise is the O(n^2) reference adjacency construction.
func neighborsPairwise(pos []Point, commRange float64) [][]NodeID {
	n := len(pos)
	neighbors := make([][]NodeID, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if Dist(pos[i], pos[j]) <= commRange {
				neighbors[i] = append(neighbors[i], NodeID(j))
				neighbors[j] = append(neighbors[j], NodeID(i))
			}
		}
	}
	for i := range neighbors {
		sort.Slice(neighbors[i], func(a, b int) bool { return neighbors[i][a] < neighbors[i][b] })
	}
	return neighbors
}

// neighborsBucketed computes the same adjacency as neighborsPairwise in
// O(n * density) by hashing nodes into commRange-sized cells: any pair
// within range lives in the same or an adjacent cell. Candidates are
// distance-checked with the same Dist comparison (squaring is sign-exact,
// so Dist(a,b) == Dist(b,a) bit-for-bit) and each list is sorted, so the
// output is byte-identical to the pairwise scan.
func neighborsBucketed(pos []Point, commRange float64) [][]NodeID {
	type cellKey struct{ x, y int }
	cells := make(map[cellKey][]NodeID, len(pos))
	key := func(p Point) cellKey {
		return cellKey{int(math.Floor(p.X / commRange)), int(math.Floor(p.Y / commRange))}
	}
	for i, p := range pos {
		c := key(p)
		cells[c] = append(cells[c], NodeID(i))
	}
	neighbors := make([][]NodeID, len(pos))
	for i, p := range pos {
		c := key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range cells[cellKey{c.x + dx, c.y + dy}] {
					if j != NodeID(i) && Dist(p, pos[j]) <= commRange {
						neighbors[i] = append(neighbors[i], j)
					}
				}
			}
		}
		sort.Slice(neighbors[i], func(a, b int) bool { return neighbors[i][a] < neighbors[i][b] })
	}
	return neighbors
}

// FromPoints builds a topology from explicit positions (index 0 is the
// sink) and a communication range.
func FromPoints(pos []Point, commRange float64) *Topology {
	if len(pos) < 1 {
		panic("topo: need at least one node")
	}
	cp := make([]Point, len(pos))
	copy(cp, pos)
	return build(cp, commRange)
}

// Chain places n nodes on a line at the given spacing with the sink at one
// end — the canonical worst-case multi-hop layout for unit tests.
func Chain(n int, spacing, commRange float64) *Topology {
	if n < 1 {
		panic("topo: need at least one node")
	}
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{X: float64(i) * spacing}
	}
	return build(pos, commRange)
}

// Grid places n = side*side nodes on a unit grid scaled by spacing, each
// jittered by a uniform offset in [-jitter, +jitter] per axis, with the sink
// at the corner. This mirrors dense indoor testbeds (Indriya/Motelab style).
func Grid(side int, spacing, jitter, commRange float64, r *rng.Source) *Topology {
	if side < 1 {
		panic("topo: grid side must be >= 1")
	}
	pos := make([]Point, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			px := float64(x)*spacing + r.Range(-jitter, jitter)
			py := float64(y)*spacing + r.Range(-jitter, jitter)
			pos = append(pos, Point{px, py})
		}
	}
	return build(pos, commRange)
}

// Uniform places n nodes uniformly at random in a width x height field. The
// sink is pinned to the field corner (0,0) so paths have meaningful length.
func Uniform(n int, width, height, commRange float64, r *rng.Source) *Topology {
	if n < 1 {
		panic("topo: need at least one node")
	}
	pos := make([]Point, n)
	pos[0] = Point{0, 0}
	for i := 1; i < n; i++ {
		pos[i] = Point{r.Range(0, width), r.Range(0, height)}
	}
	return build(pos, commRange)
}

// Corridor places n nodes along a long thin strip of the given length and
// width, sink at one end — the classic worst case for hop count.
func Corridor(n int, length, width, commRange float64, r *rng.Source) *Topology {
	if n < 1 {
		panic("topo: need at least one node")
	}
	pos := make([]Point, n)
	pos[0] = Point{0, width / 2}
	for i := 1; i < n; i++ {
		pos[i] = Point{r.Range(0, length), r.Range(0, width)}
	}
	return build(pos, commRange)
}

// Connected reports whether every node can reach the sink over the neighbor
// relation.
func (t *Topology) Connected() bool {
	return len(t.ReachableFromSink()) == t.N()
}

// ReachableFromSink returns the set of nodes reachable from the sink (BFS).
func (t *Topology) ReachableFromSink() []NodeID {
	seen := make([]bool, t.N())
	queue := []NodeID{Sink}
	seen[Sink] = true
	var out []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		out = append(out, cur)
		for _, nb := range t.neighbors[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return out
}

// HopCounts returns the minimum hop distance from every node to the sink;
// unreachable nodes get -1.
func (t *Topology) HopCounts() []int {
	hops := make([]int, t.N())
	for i := range hops {
		hops[i] = -1
	}
	hops[Sink] = 0
	queue := []NodeID{Sink}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range t.neighbors[cur] {
			if hops[nb] == -1 {
				hops[nb] = hops[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return hops
}

// Link is a directed link key (From transmits to To).
type Link struct {
	From, To NodeID
}

func (l Link) String() string { return fmt.Sprintf("%d->%d", l.From, l.To) }

// Links enumerates every directed link (both directions of each adjacency)
// in canonical LinkTable order: ascending From, then ascending To.
func (t *Topology) Links() []Link {
	out := make([]Link, t.lt.Len())
	copy(out, t.lt.links)
	return out
}

// Stats summarises a topology for reporting.
type Stats struct {
	Nodes     int
	Links     int // directed
	MinDegree int
	MaxDegree int
	AvgDegree float64
	MaxHops   int
	AvgHops   float64
	Connected bool
}

// Summary computes Stats for the topology.
func (t *Topology) Summary() Stats {
	s := Stats{Nodes: t.N(), MinDegree: math.MaxInt}
	totalDeg := 0
	for _, nbs := range t.neighbors {
		d := len(nbs)
		totalDeg += d
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	if t.N() > 0 {
		s.AvgDegree = float64(totalDeg) / float64(t.N())
	}
	s.Links = totalDeg
	hops := t.HopCounts()
	sum, cnt := 0, 0
	s.Connected = true
	for _, h := range hops {
		if h < 0 {
			s.Connected = false
			continue
		}
		if h > s.MaxHops {
			s.MaxHops = h
		}
		sum += h
		cnt++
	}
	if cnt > 1 {
		s.AvgHops = float64(sum) / float64(cnt-1) // exclude the sink itself
	}
	return s
}
