package experiment

import (
	"fmt"

	"dophy/internal/collect"
	"dophy/internal/mac"
	"dophy/internal/rng"
	"dophy/internal/routing"
	"dophy/internal/sim"
	"dophy/internal/sim/shard"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// ShardSpec parameterises a sharded run of a Scenario.
//
// A sharded run is not the same simulation as experiment.Run: beacons and
// data hops travel with explicit latency (the fabric) instead of being
// applied synchronously, so cross-shard messages always arrive at least one
// lookahead window in the future. What IS guaranteed is that the run is
// byte-identical at every shard count, including Shards == 1 — that case
// executes the very same event sequence on a single engine with zero
// goroutines and serves as the sequential reference.
type ShardSpec struct {
	// Shards is the number of spatial partitions (= worker cores).
	Shards int
	// BeaconLatency is the propagation delay of a beacon from transmitter
	// to receiver. Must be positive: together with the data-plane floor
	// HopDelay+TxTime it bounds the conservative lookahead window.
	BeaconLatency sim.Time
	// FullSchemes attaches the complete estimator set (dophy, dophy-noagg,
	// raw/compact/huffman path records, MINC, LSQ) exactly as
	// experiment.Run does. When false only dophy runs — the configuration
	// the large scale tiers use, where the sequential sink-side decode of
	// seven schemes would dwarf the parallel simulation itself.
	FullSchemes bool
}

// DefaultShardSpec returns a spec with the beacon latency matched to the
// default collect config's data-plane latency floor (HopDelay+TxTime), so
// both cross-shard latency bounds coincide and the lookahead window — and
// with it the barrier interval — is as large as the scenario permits.
func DefaultShardSpec(shards int) ShardSpec {
	c := DefaultScenario().Collect
	return ShardSpec{Shards: shards, BeaconLatency: c.HopDelay + c.TxTime}
}

// ShardStats reports how the partitioned run executed.
type ShardStats struct {
	Shards    int
	Lookahead sim.Time
	CutLinks  int    // directed links crossing a shard boundary
	Links     int    // total directed links
	Windows   uint64 // parallel windows executed
	Exchanged uint64 // cross-shard messages delivered at barriers
}

// shardFabric carries beacons and data packets between nodes for one
// shard. It implements routing.Fabric and collect.Fabric. Each shard gets
// its own instance, and with it its own carrier free list, which only that
// shard's worker touches.
type shardFabric struct {
	s    *ShardedSession
	k    topo.ShardID
	free []*carrier
}

// maxFreeCarriers caps a shard's free list. Cross-shard traffic moves
// carriers from the sender's list to the receiver's (data hops mostly flow
// one way, toward the sink), so an uncapped list would grow with every
// hop into a shard; beyond the cap a returned carrier is left to the GC.
const maxFreeCarriers = 1 << 14

// carrier is a pooled continuation for one fabric delivery: a received
// beacon (j == nil) or a data hop. It is the sharded counterpart of
// collect's hopCont. A carrier comes from the sending shard's free list
// and goes back to the free list of the shard that runs it, so every free
// list has one writer; a cross-shard carrier changes hands only through
// the outbox merge at the window barrier, which orders the two shards'
// accesses. Once a carrier is back on a free list the next send owns it;
// TestShardedByteDeterminism and TestShardedCarrierHandOff pin that
// hand-off, since a write to c after the pool append corrupts the next
// in-flight delivery.
type carrier struct {
	f        *shardFabric // the receiving shard's fabric
	from, to topo.NodeID
	seq      int64                  // beacon sequence number
	adv      float64                // beacon's advertised path ETX
	j        *collect.PacketJourney // nil for a beacon
	fn       sim.Handler
}

// run is the carrier's continuation: it reads its payload into locals,
// returns itself to the running shard's pool, and only then delivers: no
// field of c may be touched after the pool append.
//
//dophy:hotpath
func (c *carrier) run() {
	f, from, to, seq, adv, j := c.f, c.from, c.to, c.seq, c.adv, c.j
	c.j = nil
	if len(f.free) < maxFreeCarriers {
		f.free = append(f.free, c)
	}
	if j != nil {
		f.s.nws[f.k].Arrive(to, j)
		return
	}
	f.s.protos[f.k].ReceiveBeacon(to, from, seq, adv)
}

// send hands a delivery to node to at absolute time at on a pooled
// carrier. Same-shard deliveries go straight onto the shard's queue;
// cross-shard ones ride the outbox to the receiver's shard, after which
// this shard may not touch the carrier (or j) again.
//
//dophy:hotpath
func (f *shardFabric) send(from, to topo.NodeID, at sim.Time, seq int64, adv float64, j *collect.PacketJourney) {
	s := f.s
	dst := s.owner[to]
	var c *carrier
	if n := len(f.free); n > 0 {
		c = f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
	} else {
		//dophy:allow hotpathalloc -- carrier-pool miss path: allocates only until the pool warms up
		c = &carrier{}
		c.fn = c.run
	}
	c.f, c.from, c.to, c.seq, c.adv, c.j = s.fabs[dst], from, to, seq, adv, j
	s.eng.Send(f.k, at, from, dst, c.fn)
}

// DeliverData lands j on its next hop's owning shard at absolute time at.
// transmit guarantees at is at least HopDelay+TxTime in the future, which
// the session's lookahead never exceeds, so cross-shard sends always clear
// the current window.
//
//dophy:hotpath
func (f *shardFabric) DeliverData(from, to topo.NodeID, at sim.Time, j *collect.PacketJourney) {
	f.send(from, to, at, 0, 0, j)
}

// DeliverBeacon applies a received beacon on the receiver's owning shard
// after the configured beacon latency.
//
//dophy:hotpath
func (f *shardFabric) DeliverBeacon(from, to topo.NodeID, seq int64, advertisedETX float64) {
	f.send(from, to, f.s.eng.Sub(f.k).Now()+f.s.sp.BeaconLatency, seq, advertisedETX, nil)
}

// ShardedSession is the partitioned counterpart of Session: one complete
// deployment split across sp.Shards engines, with every scheme fed the
// exact same journey sequence regardless of the shard count.
//
// Per-shard instances of the mac/routing/collect stack own disjoint node
// sets; all their RNG draws come from per-node streams (rng.Derive), so no
// draw order depends on how nodes interleave across shards. Journeys
// completed inside a window are parked in per-shard buffers and flushed at
// the window barrier in (Completed, Origin, Seq) order — a key shard
// numbering never enters — then fed sequentially to the estimators on the
// coordinator. Windows partition virtual time, so the concatenation of
// per-window flushes is itself globally sorted and identical at any K.
type ShardedSession struct {
	sc        Scenario
	sp        ShardSpec
	lookahead sim.Time
	tp        *topo.Topology
	lt        *topo.LinkTable
	eng       *shard.Engine  // the coordinator handle; windowing happens inside it
	owner     []topo.ShardID // topo.Partition's node->shard map
	cutLinks  int
	// Per-shard stacks: window code reaches them only through a typed
	// ShardID index, so shards never alias each other's state.
	recs   []*trace.Recorder
	protos []*routing.Protocol
	nws    []*collect.Network
	fabs   []*shardFabric
	bufs   [][]*collect.PacketJourney // journeys completed since the last flush, per shard
	fmerge []*collect.PacketJourney   // flush merge scratch

	// The sink runs on the coordinator only, fed sequentially at window
	// barriers.
	sink  *sink
	epoch int
}

// NewShardedSession partitions the scenario's topology, builds one
// mac/routing/collect stack per shard, attaches the schemes, runs the
// routing warmup and starts data generation — the sharded mirror of
// NewSession.
func NewShardedSession(sc Scenario, sp ShardSpec) *ShardedSession {
	if sp.Shards < 1 {
		panic(fmt.Sprintf("experiment: %d shards", sp.Shards))
	}
	if !(sp.BeaconLatency > 0) {
		panic(fmt.Sprintf("experiment: beacon latency %v must be positive", sp.BeaconLatency))
	}
	if sc.Mac.AckOverReverseLink {
		// The ACK draw queries the reverse link's radio state, which the
		// receiver's shard owns — it cannot run under the sender's window.
		panic("experiment: AckOverReverseLink is incompatible with sharded runs")
	}
	if sc.Radio.FailMTBF > 0 {
		// Node-failure processes mutate both endpoints' radio state on
		// every query; they have no single owning shard.
		panic("experiment: node failures (FailMTBF) are incompatible with sharded runs")
	}
	if sc.Collect.QueueCap > 0 {
		// Contention queues chain transmissions back to back, so a node's
		// release and an incoming arrival systematically land on the same
		// timestamp — and at a full queue their order decides a drop. That
		// order depends on the shard layout; only the zero-contention
		// abstraction (QueueCap 0) is shard-invariant.
		panic("experiment: bounded forwarding queues (QueueCap > 0) are incompatible with sharded runs")
	}
	dataFloor := sc.Collect.HopDelay + sc.Collect.TxTime
	if !(dataFloor > 0) {
		panic(fmt.Sprintf("experiment: HopDelay+TxTime %v must be positive for sharded runs", dataFloor))
	}
	lookahead := sp.BeaconLatency
	if dataFloor < lookahead {
		lookahead = dataFloor
	}

	root := rng.New(sc.Seed)
	tp := sc.Topo.Build(root.Split())
	model := sc.Radio.Build(tp, sc.Seed^0x9e3779b97f4a7c15)
	lt := tp.LinkTable()
	// One stream per node, derived before any per-shard construction so the
	// streams are identical at every shard count.
	streams := rng.NewStreams(root.Uint64(), tp.N())

	owner := tp.Partition(sp.Shards)
	_, cut := lt.CrossShard(owner)

	s := &ShardedSession{
		sc: sc, sp: sp, lookahead: lookahead,
		tp: tp, lt: lt, owner: owner, cutLinks: cut,
		eng:    shard.New(shard.Config{Shards: sp.Shards, Lookahead: lookahead, Nodes: tp.N()}),
		recs:   make([]*trace.Recorder, sp.Shards),
		protos: make([]*routing.Protocol, sp.Shards),
		nws:    make([]*collect.Network, sp.Shards),
		fabs:   make([]*shardFabric, sp.Shards),
		bufs:   make([][]*collect.PacketJourney, sp.Shards),
	}
	for k := 0; k < sp.Shards; k++ {
		owned := make([]bool, tp.N())
		for i := range owned {
			owned[i] = owner[i] == topo.ShardID(k)
		}
		fab := &shardFabric{s: s, k: topo.ShardID(k)}
		sub := s.eng.Sub(topo.ShardID(k))
		rec := trace.NewRecorder(lt)
		arq := mac.New(sc.Mac, model, root.Split(), rec)
		arq.UsePerNodeRNG(streams)
		proto := routing.NewSharded(sc.Routing, sub, tp, model, root.Split(), rec,
			routing.ShardHooks{Owned: owned, PerNode: streams, Fabric: fab})
		nw := collect.NewSharded(sc.Collect, sub, tp, arq, proto, root.Split(), rec,
			collect.ShardHooks{Owned: owned, PerNode: streams, Fabric: fab})
		shardIdx := topo.ShardID(k)
		nw.Subscribe(func(j *collect.PacketJourney) { s.bufferJourney(shardIdx, j) })
		s.recs[k], s.protos[k], s.nws[k], s.fabs[k] = rec, proto, nw, fab
	}

	s.sink = newSink(tp, sc, sp.FullSchemes)
	// Feeding the estimators at every barrier (rather than at epoch ends)
	// bounds journey buffering to one window's worth of completions.
	s.eng.OnBarrier(s.flush)

	for _, p := range s.protos {
		p.Start()
	}
	s.eng.Run(sc.Warmup)
	s.flush()               // warmup produces no journeys, but keep the accounting exact
	trace.CutMerged(s.recs) // discard warmup ground truth
	for _, nw := range s.nws {
		nw.Start()
	}
	return s
}

// bufferJourney parks a journey completed by shard k until the next flush.
// It runs as collect's completion subscriber inside k's window.
func (s *ShardedSession) bufferJourney(k topo.ShardID, j *collect.PacketJourney) {
	s.bufs[k] = append(s.bufs[k], j)
}

// flush drains every shard's completed-journey buffer in (Completed,
// Origin, Seq) order — a pure function of simulation behaviour, so the
// global feed sequence is identical at every shard count — and feeds the
// sink. Runs on the coordinator: at window barriers for K > 1, after
// Run returns for K == 1.
func (s *ShardedSession) flush() {
	m := s.fmerge[:0]
	for k := range s.bufs {
		b := s.bufs[k]
		m = append(m, b...)
		for i := range b {
			b[i] = nil
		}
		s.bufs[k] = b[:0]
	}
	if len(m) > 1 {
		sortJourneys(m)
	}
	for i, j := range m {
		s.sink.onJourney(j)
		m[i] = nil
	}
	s.fmerge = m[:0]
}

func sortJourneys(m []*collect.PacketJourney) {
	// Insertion sort: windows are short, so m is tiny and almost sorted
	// (per-shard buffers are already completion-ordered).
	for i := 1; i < len(m); i++ {
		j := m[i]
		k := i - 1
		for k >= 0 && journeyAfter(m[k], j) {
			m[k+1] = m[k]
			k--
		}
		m[k+1] = j
	}
}

func journeyAfter(a, b *collect.PacketJourney) bool {
	if a.Completed != b.Completed {
		return a.Completed > b.Completed
	}
	if a.Origin != b.Origin {
		return a.Origin > b.Origin
	}
	return a.Seq > b.Seq
}

// Topology returns the built topology.
func (s *ShardedSession) Topology() *topo.Topology { return s.tp }

// BeaconsSent sums the control-plane cost over all shards. Like every
// cross-shard reader below, it must only run with the workers parked.
func (s *ShardedSession) BeaconsSent() int64 {
	var total int64
	for _, p := range s.protos {
		total += p.BeaconsSent
	}
	return total
}

// Events sums the simulator events executed by all shards.
func (s *ShardedSession) Events() uint64 { return s.eng.Processed() }

// Routed counts nodes (excluding the sink) that currently have a parent.
func (s *ShardedSession) Routed() int {
	n := 0
	for _, p := range s.protos {
		n += p.Routed()
	}
	return n
}

// Stats reports the partitioning and window accounting so far.
func (s *ShardedSession) Stats() ShardStats {
	return ShardStats{
		Shards:    s.sp.Shards,
		Lookahead: s.lookahead,
		CutLinks:  s.cutLinks,
		Links:     s.lt.Len(),
		Windows:   s.eng.Windows(),
		Exchanged: s.eng.Exchanged(),
	}
}

// queueDrops sums congestion losses over all shards.
func (s *ShardedSession) queueDrops() int64 {
	var total int64
	for _, nw := range s.nws {
		total += nw.QueueDrops
	}
	return total
}

// cutEpoch advances the simulation one epoch and cuts the sink's harvest,
// mirroring Session.cutEpoch. It drains per-shard recorders, so it runs
// strictly between Run windows.
func (s *ShardedSession) cutEpoch() *epochCut {
	s.epoch++
	s.eng.Run(s.sc.Warmup + sim.Time(s.epoch)*s.sc.EpochLen)
	s.flush() // single-shard runs have no barriers; drain the epoch's tail
	return s.sink.cut(s.epoch, trace.CutMerged(s.recs), s.queueDrops())
}

// RunEpoch advances the simulation one epoch and harvests every attached
// scheme, mirroring Session.RunEpoch.
func (s *ShardedSession) RunEpoch() *EpochOutcome {
	return s.sink.bank.estimate(s.cutEpoch())
}

// Close stops the shard workers. The session must not be run afterwards.
func (s *ShardedSession) Close() { s.eng.Close() }

// RunSharded executes the scenario under the sharded engine — the
// partitioned mirror of Run, through the same epoch pipeline. The result is
// byte-identical for every value of sp.Shards (see ShardSpec); it is NOT
// comparable to Run's, which applies beacons and hand-offs with zero
// latency.
func RunSharded(sc Scenario, sp ShardSpec) *RunResult {
	s := NewShardedSession(sc, sp)
	defer s.Close()
	return runEpochs(sc, s, s.sink.bank)
}
