package experiment

import (
	"fmt"
	"math"

	"dophy/internal/collect"
	"dophy/internal/core"
	"dophy/internal/energy"
	"dophy/internal/stats"
	"dophy/internal/tomo/pathrecord"
	"dophy/internal/topo"
)

// The experiments in this file go beyond the paper's abstract: they probe
// extensions and robustness axes a production deployment of Dophy would
// care about. DESIGN.md lists them in the experiment index as T5/T6/F7/F8.

// T5 ablates the conditional hop-identity model extension: disseminating
// per-node next-hop distributions lets the coder beat log2(degree) on the
// path symbols, at extra dissemination cost.
func T5(seed uint64) *Table {
	t := &Table{
		ID:      "T5",
		Title:   "Hop-identity model updates: annotation vs dissemination (extension)",
		Columns: []string{"hop-update-every", "annot-bytes/pkt", "dissem-bytes/pkt", "total-bytes/pkt", "MAE"},
		Notes: []string{
			"0 = uniform neighbour-index models (the paper's baseline behaviour)",
			"a node forwarding most traffic to one parent pays < log2(degree) bits per hop id",
		},
	}
	periods := []int{0, 1, 2, 4}
	scs := make([]Scenario, len(periods))
	for i, ue := range periods {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t5-%d", ue)
		sc.Seed = seed
		sc.Dophy.HopModelUpdateEvery = ue
		sc.Dophy.HopModelTotal = 256
		sc.Epochs = 6
		sc.EpochLen = 250
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		annot := res.MeanBitsPerPacket(SchemeDophy) / 8
		total := res.TotalBitsPerPacket(SchemeDophy) / 8
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", periods[i]),
			f2(annot),
			f2(total - annot),
			f2(total),
			f(res.MeanAccuracy(SchemeDophy).MAE),
		})
		t.recordRuns(res)
	}
	return t
}

// T6 sweeps the MAC retry budget: as ARQ gets stronger, end-to-end delivery
// stops carrying loss information and the traditional baselines go blind,
// while Dophy's per-attempt observations get richer.
func T6(seed uint64) *Table {
	t := &Table{
		ID:      "T6",
		Title:   "Retry budget vs estimator visibility (why 'fine-grained' matters)",
		Columns: []string{"max-retx", "delivery", "dophy-MAE", "minc-MAE", "lsq-MAE"},
		Notes: []string{
			"stronger ARQ pushes delivery toward 1, starving delivery-ratio tomography",
			"of signal; retransmission counts keep their full information content",
		},
	}
	budgets := []int{0, 1, 3, 7}
	scs := make([]Scenario, len(budgets))
	for i, retx := range budgets {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t6-%d", retx)
		sc.Seed = seed
		sc.Mac.MaxRetx = retx
		sc.EpochLen = 400
		sc.Epochs = 3
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		var delivery float64
		for _, eo := range res.Epochs {
			delivery += eo.Truth.DeliveryRatio() / float64(len(res.Epochs))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", budgets[i]),
			f(delivery),
			f(res.MeanAccuracy(SchemeDophy).MAE),
			f(res.MeanAccuracy(SchemeMINC).MAE),
			f(res.MeanAccuracy(SchemeLSQ).MAE),
		})
		t.recordRuns(res)
	}
	return t
}

// F7 overlays node crash/recover dynamics: the strongest routing dynamics,
// where whole subtrees must re-home around dead forwarders.
func F7(seed uint64) *Table {
	t := &Table{
		ID:      "F7",
		Title:   "Accuracy and delivery under node failures (extension)",
		Columns: []string{"mtbf(s)", "delivery", "parent-chg/node/ep", "dophy-MAE", "minc-MAE", "lsq-MAE"},
		Notes: []string{
			"nodes crash (radio silent) and recover; MTTR fixed at 60s; sink never fails",
			"routing discovers failures via lost beacons/ACKs and re-routes",
		},
	}
	mtbfs := []float64{0, 2400, 1200, 600, 300}
	scs := make([]Scenario, len(mtbfs))
	for i, mtbf := range mtbfs {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f7-%.0f", mtbf)
		sc.Seed = seed
		if mtbf > 0 {
			sc.Radio.FailMTBF = timeT(mtbf)
			sc.Radio.FailMTTR = 60
		}
		sc.EpochLen = 400
		sc.Epochs = 3
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		mtbf := mtbfs[i]
		t.recordRuns(res)
		var delivery, churn float64
		for _, eo := range res.Epochs {
			delivery += eo.Truth.DeliveryRatio() / float64(len(res.Epochs))
			churn += float64(eo.Truth.ParentChanges) / float64(len(res.Epochs))
		}
		churn /= float64(res.Topology.N() - 1)
		label := "none"
		if mtbf > 0 {
			label = fmt.Sprintf("%.0f", mtbf)
		}
		t.Rows = append(t.Rows, []string{
			label,
			f(delivery),
			f2(churn),
			f(res.MeanAccuracy(SchemeDophy).MAE),
			f(res.MeanAccuracy(SchemeMINC).MAE),
			f(res.MeanAccuracy(SchemeLSQ).MAE),
		})
	}
	return t
}

// F8 measures accuracy under bursty (Gilbert-Elliott) losses, where the
// per-attempt loss a link exhibits is itself time-varying within an epoch.
func F8(seed uint64) *Table {
	t := &Table{
		ID:      "F8",
		Title:   "Accuracy under bursty (Gilbert-Elliott) losses (extension)",
		Columns: []string{"mean-bad-dwell(s)", "dophy-MAE", "dophy-p90-err", "minc-MAE", "lsq-MAE"},
		Notes: []string{
			"burst dwells shorten left to right at ~17% bad-state occupancy",
			"truth is the epoch's empirical per-attempt loss per link",
		},
	}
	dwells := []float64{120, 60, 30, 10}
	scs := make([]Scenario, len(dwells))
	for i, bad := range dwells {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f8-%.0f", bad)
		sc.Seed = seed
		sc.Radio = RadioSpec{
			Kind:      RadioGilbertElliott,
			MeanGood:  timeT(bad * 5),
			MeanBad:   timeT(bad),
			BadFactor: 0.25,
		}
		sc.EpochLen = 400
		sc.Epochs = 3
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		bad := dwells[i]
		t.recordRuns(res)
		// p90 of Dophy's absolute per-link error across epochs.
		var errs []float64
		for _, eo := range res.Epochs {
			acc := Score(eo.Schemes[SchemeDophy], eo.Truth, scs[i].MinTruthAttempts)
			errs = append(errs, acc.Errors...)
		}
		p90 := 0.0
		if len(errs) > 0 {
			p90 = stats.Summarize(errs).P90
		}
		t.Rows = append(t.Rows, []string{
			f1(bad),
			f(res.MeanAccuracy(SchemeDophy).MAE),
			f(p90),
			f(res.MeanAccuracy(SchemeMINC).MAE),
			f(res.MeanAccuracy(SchemeLSQ).MAE),
		})
	}
	return t
}

// timeT converts to sim.Time without shadowing package names at call sites.
func timeT(v float64) (out simTimeAlias) { return simTimeAlias(v) }

// F9 overloads the network so relays drop packets from full queues:
// congestion loss that has nothing to do with link quality. Delivery-ratio
// tomography cannot tell the two apart; Dophy's per-attempt observations
// are untouched by queue drops.
func F9(seed uint64) *Table {
	t := &Table{
		ID:      "F9",
		Title:   "Accuracy under congestion (queue drops) (extension)",
		Columns: []string{"gen-period(s)", "delivery", "queue-drop%", "dophy-MAE", "minc-MAE", "lsq-MAE"},
		Notes: []string{
			"QueueCap=4, TxTime=50ms: shrinking the generation period overloads relays",
			"queue drops corrupt delivery ratios but not retransmission counts",
		},
	}
	periods := []float64{5, 2, 1, 0.5}
	scs := make([]Scenario, len(periods))
	for i, gp := range periods {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f9-%.1f", gp)
		sc.Seed = seed
		sc.Collect.GenPeriod = timeT(gp)
		sc.Collect.TxTime = 0.05
		sc.Collect.QueueCap = 4
		sc.EpochLen = 300
		sc.Epochs = 3
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		gp := periods[i]
		t.recordRuns(res)
		var delivery, qdrops, generated float64
		for _, eo := range res.Epochs {
			delivery += eo.Truth.DeliveryRatio() / float64(len(res.Epochs))
			qdrops += float64(eo.QueueDrops)
			generated += float64(eo.Truth.Generated)
		}
		qPct := 0.0
		if generated > 0 {
			qPct = 100 * qdrops / generated
		}
		t.Rows = append(t.Rows, []string{
			f2(gp),
			f(delivery),
			f2(qPct),
			f(res.MeanAccuracy(SchemeDophy).MAE),
			f(res.MeanAccuracy(SchemeMINC).MAE),
			f(res.MeanAccuracy(SchemeLSQ).MAE),
		})
	}
	return t
}

// T7 ablates the annotation source under ACK loss: receiver-observed
// first-delivery attempts (what Dophy records) versus sender-side total
// transmission counts (what a naive implementation would log).
func T7(seed uint64) *Table {
	t := &Table{
		ID:      "T7",
		Title:   "Annotation source under ACK loss: receiver vs sender counts (extension)",
		Columns: []string{"ack-loss", "receiver-MAE", "sender-MAE"},
		Notes: []string{
			"lost ACKs trigger duplicate retransmissions the sender counts but the",
			"receiver's first-delivery observation ignores; sender counts inflate loss",
		},
	}
	acks := []float64{0, 0.1, 0.2, 0.4}
	type point struct {
		row    []string
		events uint64
		estS   float64
	}
	for _, p := range Sweep(len(acks), func(i int) point {
		al := acks[i]
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t7-%.1f", al)
		sc.Seed = seed
		sc.Mac.AckLoss = al
		sc.Epochs = 3
		sess := NewSession(sc)
		mkCfg := func(sender bool) pathrecord.Config {
			c := pathRecordConfig(sc, pathrecord.Compact)
			c.SenderCounts = sender
			return c
		}
		recv := pathrecord.New(sess.Topology(), mkCfg(false))
		send := pathrecord.New(sess.Topology(), mkCfg(true))
		sess.SubscribeJourneys(func(j *collect.PacketJourney) {
			recv.OnJourney(j)
			send.OnJourney(j)
		})
		var recvMAE, sendMAE []float64
		var estS float64
		for e := 0; e < sc.Epochs; e++ {
			eo := sess.RunEpoch()
			estS += eo.EstSeconds
			rRep := recv.EndEpoch()
			sRep := send.EndEpoch()
			rAcc := Score(&SchemeEpoch{Name: "recv", Table: rRep.Table, Loss: rRep.Loss}, eo.Truth, sc.MinTruthAttempts)
			sAcc := Score(&SchemeEpoch{Name: "send", Table: sRep.Table, Loss: sRep.Loss}, eo.Truth, sc.MinTruthAttempts)
			if !math.IsNaN(rAcc.MAE) {
				recvMAE = append(recvMAE, rAcc.MAE)
			}
			if !math.IsNaN(sAcc.MAE) {
				sendMAE = append(sendMAE, sAcc.MAE)
			}
		}
		return point{
			row: []string{
				f2(al),
				f(stats.Mean(recvMAE)),
				f(stats.Mean(sendMAE)),
			},
			events: sess.Events(),
			estS:   estS,
		}
	}) {
		t.Rows = append(t.Rows, p.row)
		t.recordSession(p.events, p.estS)
	}
	return t
}

// T8 checks estimator calibration: how often the truth falls inside the
// MLE's 95% observed-information interval, by sample-size bucket.
func T8(seed uint64) *Table {
	t := &Table{
		ID:      "T8",
		Title:   "Estimator calibration: 95% interval coverage (extension)",
		Columns: []string{"samples-bucket", "links", "covered", "coverage"},
		Notes: []string{
			"interval: estimate +/- 1.96 x observed-information stderr",
			"truth itself is an empirical ratio, so coverage above ~90% is healthy",
		},
	}
	sc := DefaultScenario()
	sc.Name = "t8"
	sc.Seed = seed
	sc.Epochs = 6
	sc.EpochLen = 300
	res := Run(sc)
	t.recordRuns(res)
	type bucket struct{ links, covered int }
	buckets := map[string]*bucket{}
	bucketOf := func(n int64) string {
		switch {
		case n < 30:
			return "10-29"
		case n < 100:
			return "30-99"
		case n < 300:
			return "100-299"
		}
		return "300+"
	}
	for _, eo := range res.Epochs {
		se := eo.Schemes[SchemeDophy]
		for i := topo.LinkIdx(0); i < se.Table.Count(); i++ {
			est := se.Loss[i]
			if math.IsNaN(est) {
				continue
			}
			truth, ok := eo.Truth.Link(se.Table.Link(i)).Loss(sc.MinTruthAttempts)
			if !ok {
				continue
			}
			stderr := se.StdErr[i]
			if stderr <= 0 {
				continue
			}
			bk := buckets[bucketOf(se.Samples[i])]
			if bk == nil {
				bk = &bucket{}
				buckets[bucketOf(se.Samples[i])] = bk
			}
			bk.links++
			if est-1.96*stderr <= truth && truth <= est+1.96*stderr {
				bk.covered++
			}
		}
	}
	for _, name := range []string{"10-29", "30-99", "100-299", "300+"} {
		bk := buckets[name]
		if bk == nil || bk.links == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", bk.links),
			fmt.Sprintf("%d", bk.covered),
			f2(float64(bk.covered) / float64(bk.links)),
		})
	}
	return t
}

// T9 compares fixed-period and Trickle-paced beaconing: control overhead
// versus estimation accuracy and routing responsiveness.
func T9(seed uint64) *Table {
	t := &Table{
		ID:      "T9",
		Title:   "Beacon pacing: fixed vs Trickle (extension)",
		Columns: []string{"pacing", "radio-env", "beacons/node/ep", "delivery", "dophy-MAE"},
		Notes: []string{
			"Trickle: interval doubles from 4s to 80s while stable; resets on route",
			"change or data-path failure (pull). Well-damped routing config so",
			"pacing, not estimator noise, drives the comparison.",
		},
	}
	type combo struct {
		env      string
		adaptive bool
	}
	combos := []combo{
		{"static", false}, {"static", true},
		{"drift", false}, {"drift", true},
	}
	scs := make([]Scenario, len(combos))
	for i, c := range combos {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t9-%s-%v", c.env, c.adaptive)
		sc.Seed = seed
		sc.Routing.Hysteresis = 3
		sc.Routing.AlphaData = 0.05
		sc.Routing.AlphaBeacon = 0.1
		if c.env == "drift" {
			sc.Radio = RadioSpec{Kind: RadioRandomWalk, WalkStep: 0.2, WalkEvery: 10}
		}
		if c.adaptive {
			sc.Routing.AdaptiveBeacon = true
			sc.Routing.BeaconMin = 4
			sc.Routing.BeaconMax = 80
			sc.Routing.TrickleReset = 1
		}
		sc.Epochs = 3
		sc.EpochLen = 400
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		t.recordRuns(res)
		label := "fixed-10s"
		if combos[i].adaptive {
			label = "trickle"
		}
		var delivery float64
		for _, eo := range res.Epochs {
			delivery += eo.Truth.DeliveryRatio() / float64(len(res.Epochs))
		}
		perNode := float64(res.BeaconsSent) / float64(res.Topology.N()) / float64(scs[i].Epochs)
		t.Rows = append(t.Rows, []string{
			label,
			combos[i].env,
			f1(perNode),
			f(delivery),
			f(res.MeanAccuracy(SchemeDophy).MAE),
		})
	}
	return t
}

// T10 runs Dophy's true distributed encoding path (packets carry suspended
// coder state hop by hop) alongside the sink-side convenience path and
// reports the extra radiated cost of carrying the coder registers.
func T10(seed uint64) *Table {
	t := &Table{
		ID:      "T10",
		Title:   "Distributed encoding path: in-flight coder-state cost (extension)",
		Columns: []string{"grid", "annot-bytes/pkt", "state-bytes/tx", "radiated-annot-KB/ep", "radiated-state-KB/ep", "estimates-identical"},
		Notes: []string{
			"each in-flight packet carries 12 bytes of suspended coder registers from hop 2 onward",
			"the distributed bitstream is bit-identical to the sink-side path (verified per run)",
		},
	}
	sides := []int{5, 7, 10}
	type point struct {
		row    []string
		events uint64
		estS   float64
	}
	for _, p := range Sweep(len(sides), func(i int) point {
		side := sides[i]
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("t10-%d", side)
		sc.Seed = seed
		sc.Topo = GridSpec(side)
		sc.Epochs = 2
		sc.EpochLen = 250
		// Zero-latency forwarding keeps both paths on identical packet sets.
		sc.Collect.TxTime = 0
		sc.Collect.HopDelay = 0
		sess := NewSession(sc)
		dist := core.New(sess.Topology(), dophyConfig(sc))
		sess.AttachAnnotator(dist.NewAnnotator())
		identical := true
		var annotBits, stateBits, packets int64
		var estS float64
		for e := 0; e < sc.Epochs; e++ {
			eo := sess.RunEpoch()
			estS += eo.EstSeconds
			dRep := dist.EndEpoch()
			cSe := eo.Schemes[SchemeDophy]
			if dRep.Overhead.AnnotationBits != cSe.AnnotationBits ||
				dRep.DecodeErrors != 0 || dRep.NumEstimated() != cSe.NumEstimated() {
				identical = false
			}
			annotBits += dRep.Overhead.AnnotationBits
			stateBits += dRep.Overhead.InFlightStateBits
			packets += dRep.Overhead.Packets
		}
		bytesPerPkt := 0.0
		if packets > 0 {
			bytesPerPkt = float64(annotBits) / 8 / float64(packets)
		}
		return point{
			row: []string{
				fmt.Sprintf("%dx%d", side, side),
				f2(bytesPerPkt),
				fmt.Sprintf("%d", 12),
				f1(float64(annotBits) / 8 / 1024 / float64(sc.Epochs)),
				f1(float64(stateBits) / 8 / 1024 / float64(sc.Epochs)),
				fmt.Sprintf("%v", identical),
			},
			events: sess.Events(),
			estS:   estS,
		}
	}) {
		t.Rows = append(t.Rows, p.row)
		t.recordSession(p.events, p.estS)
	}
	return t
}

// T11 prices each recording scheme's annotation in radio energy — the unit
// battery deployments budget in — using CC2420-class constants.
func T11(seed uint64) *Table {
	t := &Table{
		ID:      "T11",
		Title:   "Energy cost of in-packet annotations (extension)",
		Columns: []string{"scheme", "radiated-bytes/pkt", "uJ/pkt", "mJ/node/day"},
		Notes: []string{
			"marginal TX+RX energy of the annotation bytes riding on data frames",
			"per-day figure assumes each node sources one packet per 5s, CC2420 at 0dBm",
		},
	}
	sc := DefaultScenario()
	sc.Name = "t11"
	sc.Seed = seed
	sc.Epochs = 3
	res := Run(sc)
	t.recordRuns(res)
	p := energy.DefaultParams()
	for _, scheme := range overheadSchemes {
		var txBits, extraBits, packets int64
		for _, eo := range res.Epochs {
			se := eo.Schemes[scheme]
			txBits += se.TransmittedBits
			extraBits += se.ExtraBits
			packets += se.Packets
		}
		rep := energy.Cost(p, txBits, extraBits, packets)
		// Packets per node per day at the scenario's generation period.
		pktsPerDay := 86400 / float64(sc.Collect.GenPeriod)
		mJPerDay := rep.TotalMicroJPerPacket * pktsPerDay / 1000
		t.Rows = append(t.Rows, []string{
			scheme,
			f2(float64(txBits) / 8 / float64(packets)),
			f2(rep.TotalMicroJPerPacket),
			f2(mJPerDay),
		})
	}
	return t
}

// F10 compares the per-epoch windowed estimator with exponentially-
// forgotten streaming estimators under drifting links and sparse traffic:
// short epochs starve the window while decay accumulates evidence — at the
// price of lag when the link actually moves.
func F10(seed uint64) *Table {
	t := &Table{
		ID:      "F10",
		Title:   "Estimation window: per-epoch reset vs exponential forgetting (extension)",
		Columns: []string{"obs-decay", "MAE", "coverage", "links/epoch"},
		Notes: []string{
			"60s epochs, drifting links, 1 packet/10s per node",
			"measured trade-off: forgetting widens coverage (stale links stay reportable)",
			"but lags the drift, so tracking error grows with the decay factor",
		},
	}
	decays := []float64{0, 0.3, 0.6, 0.9}
	scs := make([]Scenario, len(decays))
	for i, decay := range decays {
		sc := DefaultScenario()
		sc.Name = fmt.Sprintf("f10-%.1f", decay)
		sc.Seed = seed
		sc.Radio = RadioSpec{Kind: RadioRandomWalk, WalkStep: 0.15, WalkEvery: 10}
		sc.Collect.GenPeriod = 10
		sc.EpochLen = 60
		sc.Epochs = 10
		sc.Dophy.ObsDecay = decay
		scs[i] = sc
	}
	for i, res := range RunAll(scs) {
		t.recordRuns(res)
		acc := res.MeanAccuracy(SchemeDophy)
		t.Rows = append(t.Rows, []string{
			f2(decays[i]),
			f(acc.MAE),
			f2(acc.Coverage),
			f1(float64(acc.Links) / float64(scs[i].Epochs)),
		})
	}
	return t
}
