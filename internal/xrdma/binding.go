package xrdma

import (
	"cmp"
	"fmt"
	"slices"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
)

// QP binding: health belongs to the QP. The §V-A keepalive is a zero-byte
// write per QP, the path doctor scores one QP's counters and recovery
// re-establishes one QP, so all three live on the qpBinding that owns the
// QP — an exclusive channel's own QP or a shared (mux) QP alike. Channels
// are the binding's riders: an exclusive channel rides its binding alone,
// muxed channels share their QP's. What differs between the two planes —
// who may score and probe, how a replacement is dialed, what giving up
// means — is the qpPlane the binding calls back into.

// qpPlane is the plane-specific half of a binding: the exclusive *Channel
// or the shared *muxQP.
type qpPlane interface {
	// gone reports a torn-down owner; its late completions and timers drop.
	gone() bool
	// serving reports that the QP carries traffic, so the doctor scores
	// it; probeable, that a keepalive probe may go out on it.
	serving() bool
	probeable() bool
	// appendRiders appends the live channels riding the QP to dst.
	appendRiders(dst []*Channel) []*Channel
	// fail hands the QP to the recovery machine.
	fail(cause error)
	sendPathHint()
	// setDialing switches the health shown while a redial is in flight.
	setDialing(on bool)
	// redial runs one re-establishment dial for epoch; onFail fires once
	// if it fails.
	redial(epoch uint64, onFail func())
	// giveUp ends recovery once the redial budget is spent.
	giveUp(cause error)
}

// qpBinding owns one QP and its health.
type qpBinding struct {
	c     *Context
	plane qpPlane
	peer  fabric.NodeID
	qp    *rnic.QP
	qpns  []uint32 // every local QPN this binding has owned (recovery-index keys)

	lastComm  sim.Time
	kaProbing bool
	kaProbeAt sim.Time

	epoch    uint64 // invalidates stale dials, timers and probes
	attempts int    // redials spent in the current outage

	doctor pathDoctor
}

// stale reports whether a dial, timer or probe started in epoch has been
// overtaken by an adoption, a new outage or teardown.
func (b *qpBinding) stale(epoch uint64) bool {
	return b.epoch != epoch || b.plane.gone()
}

// newEpoch strands the previous epoch's dials, timers and probe and
// refills the redial budget.
func (b *qpBinding) newEpoch() {
	b.epoch++
	b.attempts = 0
	b.kaProbing = false
}

// adopted starts a replacement QP's life: a fresh idle clock and a doctor
// that does not blame it for the old path's symptoms.
func (b *qpBinding) adopted(now sim.Time) {
	b.newEpoch()
	b.lastComm = now
	b.doctor.resetEpisode()
}

// degrade parks the attached riders of the broken QP and starts recovery.
func (b *qpBinding) degrade(cause error, dialer bool) {
	c := b.c
	now := c.eng.Now()
	b.newEpoch()
	riders := b.plane.appendRiders(nil)
	c.Stats.Degraded++
	c.tel.Flight.Trip(now, telemetry.CatChannelDegraded, int32(c.Node()), b.qp.QPN)
	c.tel.Trace.Instant("qp.degraded", c.track, now, int64(b.peer))
	c.logf("qpn=%d peer=%d degraded (%d channels): %v", b.qp.QPN, b.peer, len(riders), cause)
	for _, ch := range riders {
		if ch.attach == attachDone { // a pending attach re-opens after recovery
			ch.park(now)
		}
	}
	b.startRecovery(dialer, cause)
}

// --- keepalive (§V-A) ---------------------------------------------------------

// keepalive probes an idle QP with a zero-byte RDMA write — acked by the
// peer RNIC without waking its application or touching registered memory
// — and declares the peer dead when a probe outlives its deadline.
func (b *qpBinding) keepalive(now sim.Time) {
	if !b.plane.probeable() {
		return
	}
	c := b.c
	if b.kaProbing {
		// The probe is a reliable RC write: its failure (retry exhaustion)
		// arrives through probeDone, so the wall-clock backstop must sit
		// above the RC retry horizon — declaring death while the NIC is
		// still legitimately retransmitting would turn every loss burst
		// into a false positive.
		nicCfg := &c.vctx.NIC.Cfg
		deadline := sim.Duration(nicCfg.RetryLimit+2) * nicCfg.RetransTimeout
		if c.cfg.KeepaliveTimeout > deadline {
			deadline = c.cfg.KeepaliveTimeout
		}
		if now.Sub(b.kaProbeAt) > deadline {
			c.logf("keepalive: peer %d unreachable, failing qpn=%d", b.peer, b.qp.QPN)
			b.peerDead(now)
		}
		return
	}
	if now.Sub(b.lastComm) < c.cfg.KeepaliveInterval {
		return
	}
	b.kaProbing = true
	b.kaProbeAt = now
	c.Stats.KeepaliveProbes++
	c.tel.Flight.Record(now, telemetry.CatKeepaliveProbe, int32(c.Node()), b.qp.QPN, int64(b.peer), 0)
	c.tel.Trace.Instant("keepalive.probe", c.track, now, int64(b.peer))
	c.flow.postDirect(b.qp, &rnic.SendWR{Op: rnic.OpWrite}, wrEntry{kind: wrKeepalive, b: b})
}

// probeDone completes a keepalive probe. A completion from a QP the
// binding has since replaced — the old QP flushing the probe after a
// recovery adopted a new one — says nothing about the new QP.
func (b *qpBinding) probeDone(cqe rnic.CQE) {
	if b.plane.gone() || cqe.QPN != b.qp.QPN {
		return
	}
	b.kaProbing = false
	now := b.c.eng.Now()
	if cqe.Status != rnic.StatusOK {
		b.peerDead(now)
		return
	}
	b.lastComm = now
}

func (b *qpBinding) peerDead(now sim.Time) {
	c := b.c
	c.Stats.KeepaliveFails++
	c.tel.Flight.Trip(now, telemetry.CatKeepaliveFail, int32(c.Node()), b.qp.QPN)
	c.tel.Trace.Instant("keepalive.fail", c.track, now, int64(b.peer))
	b.plane.fail(ErrPeerDead)
}

// --- path doctor scan ----------------------------------------------------------

// pathScan runs one doctor pass over the QP. A shared QP's counters
// aggregate every rider's symptoms, so the scan (and at most one
// flow-label rotation) runs once per QP, never per channel: per-channel
// doctors would each see the full delta and rotate K times per sick tick.
func (b *qpBinding) pathScan(now sim.Time) {
	if b.qp == nil || b.plane.gone() {
		return // no path to judge yet, or torn down
	}
	c := b.c
	d := &b.doctor
	retx := b.qp.Counters.Retransmits
	rnr := b.qp.Counters.RNRNakRecv
	corrupt := b.qp.Counters.CorruptDrops
	if !b.plane.serving() || !d.inited {
		// The health machine owns the QP (or it was just adopted): keep
		// the watermarks fresh so recovery traffic is not blamed.
		d.resync(retx, rnr, corrupt)
		return
	}
	if d.scoreScan(retx, rnr, corrupt) {
		v := d.verdict
		c.tel.Flight.Record(now, telemetry.CatPathVerdict, int32(c.Node()), b.qp.QPN, int64(v), int64(d.score*100))
		c.tel.Trace.Instant("path.verdict", c.track, now, int64(v))
		d.log = append(d.log, fmt.Sprintf("t=%v node=%d path=%v score=%d", now, c.Node(), v, int64(d.score*100)))
		for _, ch := range b.plane.appendRiders(nil) {
			if ch.onPathVerdict != nil {
				ch.onPathVerdict(v)
			}
		}
	}
	switch d.verdict {
	case PathClean:
		d.sickScans = 0
		if d.rotations > 0 {
			d.cleanScans++
			if d.cleanScans >= pdCleanScansToForgive {
				d.rotations = 0
				d.cleanScans = 0
			}
		}
	case PathSuspect:
		d.cleanScans = 0
	case PathSick:
		d.cleanScans = 0
		if d.hintDue(c, now) {
			b.plane.sendPathHint()
		}
		if d.rotateOrEscalate(c, b.qp.QPN, now) {
			b.plane.fail(ErrPathSick)
		}
	}
}

// --- redial loop ------------------------------------------------------------------

// startRecovery begins re-establishing a broken QP: the dialing side runs
// the redial loop, the other waits for the peer's dial — bounded by
// recoverGrace, so both sides converge on the same outcome.
func (b *qpBinding) startRecovery(dialer bool, cause error) {
	if dialer {
		b.scheduleRedial(cause)
		return
	}
	epoch := b.epoch
	b.c.eng.AfterBg(b.c.recoverGrace(), func() {
		if !b.stale(epoch) {
			b.plane.giveUp(cause)
		}
	})
}

// scheduleRedial arms the next dial after a backoff, or gives up once
// RecoverRetries dials are spent.
func (b *qpBinding) scheduleRedial(cause error) {
	c := b.c
	if b.attempts >= c.cfg.RecoverRetries {
		b.plane.giveUp(cause)
		return
	}
	epoch := b.epoch
	c.eng.AfterBg(recoverBackoff(c, b.attempts), func() {
		if !b.stale(epoch) {
			b.tryRedial(cause)
		}
	})
}

// tryRedial runs one dial. While the local NIC itself is down the attempt
// is spent without dialing — a restart revives the NIC, so the loop keeps
// re-arming within the budget.
func (b *qpBinding) tryRedial(cause error) {
	c := b.c
	if !c.vctx.NIC.Alive() {
		b.attempts++
		b.scheduleRedial(cause)
		return
	}
	b.plane.setDialing(true)
	b.attempts++
	c.Stats.RecoverAttempts++
	b.epoch++
	epoch := b.epoch
	b.plane.redial(epoch, func() {
		if b.stale(epoch) {
			return
		}
		b.plane.setDialing(false)
		b.scheduleRedial(cause)
	})
}

// recoverBackoff is the delay before dial attempt n (0-based):
// exponential, capped, with ±25% jitter from the context RNG to
// decorrelate fleet-wide retry storms after a shared fault (a downed
// switch degrades many QPs at once).
func recoverBackoff(c *Context, attempt int) sim.Duration {
	cfg := &c.cfg
	d := cfg.RecoverBackoff << uint(attempt)
	if d <= 0 || d > cfg.RecoverBackoffMax {
		d = cfg.RecoverBackoffMax
	}
	if d <= 0 {
		d = sim.Millisecond
	}
	return d - d/4 + sim.Duration(c.rng.Float64()*float64(d)/2)
}

// --- riders -------------------------------------------------------------------------

// park holds a rider while its QP is down: traffic stays queued, and the
// delayed ack and the deadlock breaker's flags are void. An exclusive
// receive pool is useless while the QP is broken (and may be gone
// entirely after a NIC restart); fresh buffers arrive with the
// replacement.
func (ch *Channel) park(now sim.Time) {
	ch.setHealth(HealthDegraded)
	ch.degradedAt = now
	for id, buf := range ch.recvBufs {
		delete(ch.recvBufs, id)
		ch.ctx.Mem.Free(buf)
	}
	ch.cancelAck()
	ch.nopInFlight = false
	ch.stallFlag = false
}

// resume moves a rider onto its QP's replacement and requeues the unacked
// tail for replay. The dialer replays at once behind a NOP beacon (its QP
// is in RTS); the passive side holds the replay until the first inbound
// RDMA frame proves the dialer's QP live, because sends posted earlier
// would race the dialer's RTR transition.
func (ch *Channel) resume(now sim.Time, initiator bool) {
	ch.nopInFlight = false
	ch.stallFlag = false
	ch.lastProgress = now
	ch.pulls = nil // lazily re-created on the next rendezvous announce
	ch.requeueUnacked()
	ch.setHealth(HealthHealthy)
	if initiator {
		ch.resumeOnRx = false
		ch.sendCtrl(kindNop)
		ch.pump()
	} else {
		ch.resumeOnRx = true
	}
}

// touch stamps the keepalive idle clock for traffic on a QP this channel
// owns. A shared QP's clock runs on the QP's own receives and control
// frames (mux.go), not on its riders' sends.
func (ch *Channel) touch(now sim.Time) {
	if ch.mx == nil {
		ch.b.lastComm = now
	}
}

// --- scan order -----------------------------------------------------------------------

// key is the QPN an exclusive binding is filed under: its current QP's,
// or for a rehydrated channel that has not adopted one yet, the last QPN
// it owned before the restart (drain.go).
func (b *qpBinding) key() uint32 {
	if b.qp != nil {
		return b.qp.QPN
	}
	return b.qpns[len(b.qpns)-1]
}

func (c *Context) exclusiveAt(q uint32) (int, bool) {
	return slices.BinarySearchFunc(c.exclusive, q, func(b *qpBinding, q uint32) int {
		return cmp.Compare(b.key(), q)
	})
}

// putChannel files an exclusive channel in the QPN table and the scan
// order under its binding's key.
func (c *Context) putChannel(ch *Channel) {
	q := ch.b.key()
	c.channels[q] = ch
	if i, found := c.exclusiveAt(q); found {
		c.exclusive[i] = ch.b
	} else {
		c.exclusive = slices.Insert(c.exclusive, i, ch.b)
	}
}

// dropChannel unfiles an exclusive channel; call it before the binding's
// QP changes.
func (c *Context) dropChannel(ch *Channel) {
	q := ch.b.key()
	if c.channels[q] != ch {
		return
	}
	delete(c.channels, q)
	i, _ := c.exclusiveAt(q)
	c.exclusive = slices.Delete(c.exclusive, i, i+1)
}

// scanBindings runs one scan step on every binding: the exclusive QPs in
// ascending QPN order (Context.exclusive, kept sorted as channels are
// filed and dropped), then the shared QPs in creation order, so RNG draws
// and posts happen in the same order every run. The list is copied first,
// into a buffer reused across ticks: a step can fail a QP and so unfile
// channels mid-walk.
func (c *Context) scanBindings(step func(*qpBinding, sim.Time)) {
	c.scanBinds = append(c.scanBinds[:0], c.exclusive...)
	for _, mx := range c.muxQPs {
		c.scanBinds = append(c.scanBinds, &mx.qpBinding)
	}
	now := c.eng.Now()
	for _, b := range c.scanBinds {
		step(b, now)
	}
	clear(c.scanBinds)
}

// deadlockScan runs the §V-B deadlock breaker on every rider. A NOP whose
// post fails synchronously can fail the QP and, with no redial budget,
// tear down or detach riders mid-walk, so they are snapshotted too.
func (b *qpBinding) deadlockScan(sim.Time) {
	c := b.c
	c.scanChans = b.plane.appendRiders(c.scanChans[:0])
	for _, ch := range c.scanChans {
		ch.deadlockCheck()
	}
	clear(c.scanChans)
}
