// Package mac models the link layer: unicast with acknowledgements and
// bounded retransmissions (ARQ), the reliability mechanism whose
// retransmission counts Dophy mines for tomography.
//
// A transmission attempt succeeds with the link's instantaneous PRR from the
// radio model. On success an acknowledgement returns; with probability
// AckLoss the ACK is lost, in which case the sender retries even though the
// receiver already has the packet (the receiver suppresses the duplicate, so
// delivery stands but the attempt count inflates — the real-world bias any
// retransmission-count scheme must live with). After MaxRetx unsuccessful
// retransmissions the packet is dropped by the sender.
//
// Collisions and queueing are intentionally not modelled: the paper's
// mechanisms operate on per-link Bernoulli loss as seen above the MAC, and
// CSMA backoff only stretches time. DESIGN.md records this scoping.
package mac

import (
	"dophy/internal/radio"
	"dophy/internal/rng"
	"dophy/internal/sim"
	"dophy/internal/topo"
	"dophy/internal/trace"
)

// Result reports the outcome of one ARQ exchange.
type Result struct {
	// Attempts is the number of radio transmissions performed (1..MaxRetx+1).
	Attempts int
	// Delivered reports whether the receiver got the packet (possibly via an
	// attempt whose ACK was lost).
	Delivered bool
	// FirstDelivered is the 1-based attempt index of the first frame the
	// receiver got, or 0 if none arrived. Because every frame carries its
	// attempt number, this is exactly the retransmission-count observation a
	// receiver-side annotator (Dophy) can record for the previous hop.
	FirstDelivered int
	// AckedAttempt is the attempt index (1-based) the sender believes
	// succeeded, or 0 if the sender gave up. When an ACK is lost this can
	// exceed the attempt that actually delivered the packet.
	AckedAttempt int
}

// Config parameterises the ARQ link layer.
type Config struct {
	MaxRetx int     // retransmissions allowed after the first attempt
	AckLoss float64 // probability an ACK is lost (fixed-rate model)
	// AckOverReverseLink makes ACK delivery follow the radio model's PRR of
	// the reverse link instead of the fixed AckLoss — the realistic model
	// for asymmetric links, where a good forward link can pair with a bad
	// ACK channel. When set, AckLoss is ignored.
	AckOverReverseLink bool
}

// DefaultConfig mirrors common low-power MAC settings (7 retransmissions,
// reliable ACKs).
func DefaultConfig() Config {
	return Config{MaxRetx: 7, AckLoss: 0}
}

// ARQ performs acknowledged unicast over a radio model.
type ARQ struct {
	cfg     Config
	model   radio.Model
	r       *rng.Source
	perNode []*rng.Source // sender-keyed streams (sharded mode); nil = use r
	rec     *trace.Recorder
}

// New builds an ARQ layer. rec may be nil to skip ground-truth recording.
func New(cfg Config, model radio.Model, r *rng.Source, rec *trace.Recorder) *ARQ {
	if cfg.MaxRetx < 0 {
		panic("mac: MaxRetx must be >= 0")
	}
	if !(0 <= cfg.AckLoss && cfg.AckLoss < 1) {
		panic("mac: AckLoss must be in [0,1)")
	}
	return &ARQ{cfg: cfg, model: model, r: r, rec: rec}
}

// MaxAttempts returns the attempt budget per packet (MaxRetx + 1).
func (a *ARQ) MaxAttempts() int { return a.cfg.MaxRetx + 1 }

// UsePerNodeRNG switches every draw of an exchange to the sending node's
// stream (indexed by l.From). The sharded engine requires this: a sender's
// draws then depend only on its own event order, not on how exchanges from
// different nodes interleave across shards. Call before the first Send.
func (a *ARQ) UsePerNodeRNG(streams []*rng.Source) { a.perNode = streams }

//dophy:hotpath
func (a *ARQ) rng(sender topo.NodeID) *rng.Source {
	if a.perNode != nil {
		return a.perNode[sender]
	}
	return a.r
}

// Send runs one ARQ exchange on link l at virtual time now.
func (a *ARQ) Send(l topo.Link, now sim.Time) Result {
	var res Result
	r := a.rng(l.From)
	for attempt := 1; attempt <= a.cfg.MaxRetx+1; attempt++ {
		res.Attempts = attempt
		p := a.model.PRR(l, now)
		received := r.Bool(p)
		if a.rec != nil {
			a.rec.Attempt(l, received)
		}
		if !received {
			continue
		}
		if !res.Delivered {
			res.Delivered = true
			res.FirstDelivered = attempt
		}
		//dophy:allow valrange -- New panics unless AckLoss is in [0,1)
		acked := !r.Bool(a.cfg.AckLoss)
		if a.cfg.AckOverReverseLink {
			rev := topo.Link{From: l.To, To: l.From}
			acked = r.Bool(a.model.PRR(rev, now))
		}
		if acked {
			res.AckedAttempt = attempt
			return res
		}
		// ACK lost: the receiver has the packet (and will suppress the
		// duplicates that follow), but the sender keeps retrying.
	}
	return res
}
