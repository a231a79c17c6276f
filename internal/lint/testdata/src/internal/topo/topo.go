// Package topo is a stand-in for the real topology package, providing the
// Link type the densebound rule keys on and the typed-index surface the
// idxdomain rule keys on.
package topo

// Link is a directed link between adjacent nodes.
type Link struct{ From, To int }

// NodeID identifies a node; LinkIdx is a position in a LinkTable. These are
// the distinct integer domains idxdomain keeps apart.
type NodeID int32

type LinkIdx int32

// ShardID identifies a partition of the node set.
type ShardID int32

// NoLink is the not-found sentinel of Index.
const NoLink LinkIdx = -1

// Sink is the collection root.
const Sink NodeID = 0

// LinkTable mirrors the real dense link table's lookup surface.
type LinkTable struct{ n int }

// Count is the exclusive upper bound for index loops.
func (t *LinkTable) Count() LinkIdx { return LinkIdx(t.n) }

// Link returns the link at table index i.
func (t *LinkTable) Link(i LinkIdx) Link { return Link{} }

// Index returns l's table index, or NoLink.
func (t *LinkTable) Index(l Link) LinkIdx { return NoLink }

// NeighborIndex returns l's position among From's neighbors — the
// neighbor-offset domain — or -1.
func (t *LinkTable) NeighborIndex(l Link) int { return -1 }
