package tcpsim

import (
	"testing"
	"time"

	"fesplit/internal/simnet"
)

// Lossy differential pins: each fixes one adversarial alignment of the
// loss process against the transfer — the first data segment, a
// retransmission itself, the final round, a tail loss that only an RTO
// can repair, back-to-back Gilbert bursts, a one-way blackout. The
// scenarios are found by seed search (the loss process is the path
// RNG's, not injectable) and every found scenario is pinned by the
// differential harness: fast lane vs packet path, transcript-identical.

// findLossSeed scans seeds until the fast-lane run of base satisfies
// pred, then returns the concrete scenario and its transcript. Fails
// the test if no seed in [0, maxSeeds) qualifies — a drift alarm: if
// the transport changes such that the condition can no longer occur,
// the pin must be revisited, not silently skipped.
func findLossSeed(t *testing.T, base fastScenario, maxSeeds int64,
	pred func(*transcript) bool) (fastScenario, *transcript) {
	t.Helper()
	for seed := int64(0); seed < maxSeeds; seed++ {
		s := base
		s.seed = seed
		tr := s.run(t, true, nil)
		if pred(tr) {
			return s, tr
		}
	}
	t.Fatalf("no seed in [0,%d) produced the boundary condition", maxSeeds)
	return base, nil
}

// pinDifferential re-runs the scenario on the packet path and requires
// a byte-identical transcript plus a complete transfer.
func pinDifferential(t *testing.T, s fastScenario, fastTr *transcript) {
	t.Helper()
	slowTr := s.run(t, false, nil)
	if d := fastTr.diff(slowTr); d != "" {
		t.Fatalf("scenario %+v diverged: %s", s, d)
	}
	if fastTr.gotLen != s.size {
		t.Fatalf("scenario %+v incomplete: %d/%d bytes", s, fastTr.gotLen, s.size)
	}
}

// lossyBase is the shared scenario shape: enough data for several
// rounds, SACK on (the recovery exchange with the most state to get
// wrong).
func lossyBase(lossRate float64) fastScenario {
	return fastScenario{
		delay:    10 * time.Millisecond,
		lossRate: lossRate,
		size:     120 << 10,
		mss:      1460,
		iw:       10,
		sack:     true,
	}
}

// retransSends returns, per sequence number, how many times the server
// sent it marked Retrans.
func retransSends(tr *transcript) map[uint64]int {
	counts := map[uint64]int{}
	for _, ev := range tr.events {
		if ev.host == "s" && ev.dir == DirSend && ev.dataLen > 0 && ev.retrans {
			counts[ev.seq]++
		}
	}
	return counts
}

// TestLossEpochFirstSegmentLoss: the loss process consumes the very
// first data segment of the transfer, before a single data delivery
// completes, so its repair overlaps the handshake's RTO state.
func TestLossEpochFirstSegmentLoss(t *testing.T) {
	base := lossyBase(0.02)
	base.size = 40 << 10
	s, tr := findLossSeed(t, base, 500, func(tr *transcript) bool {
		return tr.stats.LossDrops > 0 && retransSends(tr)[1] > 0 && tr.stats.Epochs > 0
	})
	pinDifferential(t, s, tr)
}

// TestLossEpochRetransmissionLoss: a retransmission is itself dropped
// (the same hole retransmitted twice or more): a failed repair attempt
// followed by a second one.
func TestLossEpochRetransmissionLoss(t *testing.T) {
	s, tr := findLossSeed(t, lossyBase(0.05), 500, func(tr *transcript) bool {
		if tr.stats.LossDrops == 0 || tr.stats.Epochs == 0 {
			return false
		}
		for _, n := range retransSends(tr) {
			if n >= 2 {
				return true
			}
		}
		return false
	})
	pinDifferential(t, s, tr)
}

// TestLossEpochFinalRoundLoss: the drop lands in the transfer's last
// congestion round (the highest data sequence is retransmitted), so
// the repair runs into the FIN exchange and teardown.
func TestLossEpochFinalRoundLoss(t *testing.T) {
	base := lossyBase(0.02)
	s, tr := findLossSeed(t, base, 1000, func(tr *transcript) bool {
		if tr.stats.LossDrops == 0 || tr.stats.Epochs == 0 {
			return false
		}
		var maxSeq uint64
		for _, ev := range tr.events {
			if ev.host == "s" && ev.dir == DirSend && ev.dataLen > 0 && ev.seq > maxSeq {
				maxSeq = ev.seq
			}
		}
		return retransSends(tr)[maxSeq] > 0
	})
	pinDifferential(t, s, tr)
}

// TestLossEpochTailLossRTO: no dupACK train forms (tail loss), so only
// the retransmission timer repairs the hole — a heap event between two
// stretches of lane traffic.
func TestLossEpochTailLossRTO(t *testing.T) {
	s, tr := findLossSeed(t, lossyBase(0.02), 1000, func(tr *transcript) bool {
		return tr.stats.LossDrops > 0 && tr.stats.Epochs > 0 && tr.serverM.Timeouts > 0
	})
	pinDifferential(t, s, tr)
}

// burstyBase is lossyBase behind a Gilbert process whose bad state
// drops most packets: clustered losses.
func burstyBase() fastScenario {
	base := lossyBase(0)
	base.useGilbert = true
	base.gilbert = simnet.GilbertParams{
		PGoodToBad: 0.02,
		PBadToGood: 0.3,
		LossGood:   0.001,
		LossBad:    0.6,
	}
	return base
}

// recoveryEpisodes counts the server's retransmission episodes: a
// retransmission opens a new one when the client's cumulative ACK has
// covered everything the server had sent when the previous episode's
// last retransmission left (NewReno's recovery point).
func recoveryEpisodes(tr *transcript) int {
	var maxAck, maxEnd, recoverAt uint64
	episodes := 0
	for _, ev := range tr.events {
		if ev.host != "s" {
			continue
		}
		switch {
		case ev.dir == DirRecv:
			maxAck = max(maxAck, ev.ack)
		case ev.dataLen == 0: // handshake, pure ACK or FIN: not data
		case ev.retrans:
			if episodes == 0 || maxAck >= recoverAt {
				episodes++
			}
			recoverAt = maxEnd
		default:
			maxEnd = max(maxEnd, ev.seq+uint64(ev.dataLen))
		}
	}
	return episodes
}

// TestLossEpochGilbertBackToBackBursts: clustered losses repaired in at
// least two separate recovery episodes, the chain's state carried
// through each of them.
func TestLossEpochGilbertBackToBackBursts(t *testing.T) {
	s, tr := findLossSeed(t, burstyBase(), 500, func(tr *transcript) bool {
		return recoveryEpisodes(tr) >= 2 && tr.stats.LossDrops >= 4
	})
	pinDifferential(t, s, tr)
}

// TestLossEpochBlackout: the server→client direction drops everything
// from the first SYN|ACK on. Both ends climb their RTO ladders and
// abort; the lane run must do so at the packet path's instants, with
// every server segment resolved as a send-time lane drop.
func TestLossEpochBlackout(t *testing.T) {
	s := fastScenario{seed: 9, delay: 10 * time.Millisecond, size: 100 << 10, mss: 1460, iw: 10}
	blackout := func(n *simnet.Network, _ *testNet) {
		n.SetPath("s", "c", simnet.PathParams{Delay: s.delay, LossRate: 1})
	}
	fastTr := s.run(t, true, blackout)
	slowTr := s.run(t, false, blackout)
	if d := fastTr.diff(slowTr); d != "" {
		t.Fatalf("blackout diverged: %s", d)
	}
	// The server's connection never establishes, so the accept callback
	// (and serverM) never sees it; its ladder shows as SYN|ACK resends.
	if fastTr.clientM.Timeouts != maxBackoffs || fastTr.sends("s") <= maxBackoffs || fastTr.gotLen != 0 {
		t.Fatalf("want both ends to climb %d RTOs with nothing delivered, got client %+v, %d server sends, %d bytes",
			maxBackoffs, fastTr.clientM, fastTr.sends("s"), fastTr.gotLen)
	}
	st := fastTr.stats
	if st.Fallbacks != 0 || st.LossDrops != uint64(fastTr.sends("s")) || st.Segments != uint64(fastTr.sends("c")) {
		t.Fatalf("want every server send a lane drop (%d), every client send a lane segment (%d), no fallback; got %+v",
			fastTr.sends("s"), fastTr.sends("c"), st)
	}
}

// TestLossyTransferNeverLeavesLane: under i.i.d. and clustered loss a
// whole transfer — drops, dupACKs, retransmissions, RTO resends — is
// lane traffic: no fallback is counted and the transcript is the packet
// path's.
func TestLossyTransferNeverLeavesLane(t *testing.T) {
	for name, base := range map[string]fastScenario{"iid-3pct": lossyBase(0.03), "gilbert": burstyBase()} {
		s, tr := findLossSeed(t, base, 100, func(tr *transcript) bool {
			return tr.stats.LossDrops > 0 && tr.serverM.Retransmits > 0
		})
		pinDifferential(t, s, tr)
		if tr.stats.Fallbacks != 0 {
			t.Fatalf("%s: lossy transfer left the lane: %+v", name, tr.stats)
		}
	}
}

// FuzzLossEpochBoundary drives the differential harness from fuzzed
// loss/shape parameters: whatever alignment of drops and epochs the
// fuzzer finds, both lanes must produce identical transcripts. Wired
// into `make fuzz-smoke` alongside the obs codec targets.
func FuzzLossEpochBoundary(f *testing.F) {
	f.Add(int64(1), uint16(20), uint8(10), uint32(64<<10), false, uint16(0), uint16(0))
	f.Add(int64(7), uint16(50), uint8(30), uint32(120<<10), true, uint16(0), uint16(0))
	f.Add(int64(42), uint16(0), uint8(5), uint32(200<<10), true, uint16(50), uint16(600))
	f.Add(int64(9), uint16(1000), uint8(1), uint32(1), false, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, lossMilli uint16, delayMs uint8,
		size uint32, sack bool, gGoodToBadMilli, gLossBadMilli uint16) {
		s := fastScenario{
			seed:     seed,
			delay:    time.Duration(1+int(delayMs)%60) * time.Millisecond,
			lossRate: float64(lossMilli%1000) / 1000 * 0.1, // [0, 10%)
			size:     1 + int(size%(256<<10)),
			mss:      1460,
			iw:       10,
			sack:     sack,
		}
		if gGoodToBadMilli > 0 {
			s.useGilbert = true
			s.gilbert = simnet.GilbertParams{
				PGoodToBad: float64(gGoodToBadMilli%100) / 1000,
				PBadToGood: 0.25,
				LossGood:   0.001,
				LossBad:    float64(gLossBadMilli%700) / 1000,
			}
		}
		fastTr := s.run(t, true, nil)
		slowTr := s.run(t, false, nil)
		// No completeness assert: extreme fuzzed loss can legitimately
		// abort the connection after maxBackoffs. The contract is that
		// both lanes do exactly the same thing — diff covers gotLen.
		if d := fastTr.diff(slowTr); d != "" {
			t.Fatalf("scenario %+v diverged: %s", s, d)
		}
	})
}
