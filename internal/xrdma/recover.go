package xrdma

import (
	"encoding/binary"
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
)

// Channel recovery: the health state machine's transient-fault path.
// When a channel's RDMA plane breaks (flushed QP, keepalive death, NIC
// restart) and the context was built with Options.RecoverPort, the
// channel enters Degraded instead of switching straight to Mock: traffic
// is held, and the lower node ID re-dials the peer's recovery listener
// through the QP cache with exponential backoff plus jitter and a
// bounded retry budget. The replacement connection is adopted on both
// sides and the unacked window tail replays — the seq-ack window of
// Algorithm 1 dedups the overlap, so the cutover is exactly-once in both
// directions. When the budget runs out the channel proceeds to the Mock
// fallback (or tears down), from which periodic failback probes try to
// return to RDMA.

const recoverHelloMagic = 0x5243 // "CR" — channel recovery

// recoverHello names the broken channel three ways: the peer-side QPN the
// dialer last saw (the fast recovery-index key), plus the immutable
// establishment-time QPN pair — the listener's first QPN and the dialer's
// first QPN. The latter two are the channel's identity: local QPNs are
// recycled through the QP cache, so with several channels to one peer the
// index entry for a recycled QPN can come to name a sibling channel, and
// only the establishment pair (which no adoption ever rewrites) tells the
// listener which protocol state this dial actually belongs to.
func recoverHello(targetQPN, targetQPN0, dialerQPN0 uint32) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint16(b, recoverHelloMagic)
	binary.LittleEndian.PutUint32(b[2:], targetQPN)
	binary.LittleEndian.PutUint32(b[6:], targetQPN0)
	binary.LittleEndian.PutUint32(b[10:], dialerQPN0)
	return b
}

func parseRecoverHello(b []byte) (target, target0, dialer0 uint32, ok bool) {
	if len(b) < 16 || binary.LittleEndian.Uint16(b) != recoverHelloMagic {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint32(b[2:]),
		binary.LittleEndian.Uint32(b[6:]),
		binary.LittleEndian.Uint32(b[10:]), true
}

// isChannelIdentity reports whether this channel IS the one the dialing
// peer means: the establishment-time QPN pair matches in both directions.
func (ch *Channel) isChannelIdentity(from fabric.NodeID, target0, dialer0 uint32) bool {
	return ch.Peer == from && len(ch.b.qpns) > 0 && ch.b.qpns[0] == target0 && ch.peerQPN0 == dialer0
}

// indexChannel records a channel's ownership of a local QPN for the
// recovery rendezvous.
func (c *Context) indexChannel(ch *Channel, qpn uint32) {
	if c.recoverPort <= 0 {
		return
	}
	c.recoverIdx[qpn] = ch
	ch.b.qpns = append(ch.b.qpns, qpn)
}

// recoverGrace bounds how long the passive side stays Degraded waiting
// for the dialer: the full dial budget worth of timeouts and backoffs on
// top of the mock grace, so both sides converge on the same outcome.
func (c *Context) recoverGrace() sim.Duration {
	return c.mockGrace() +
		sim.Duration(c.cfg.RecoverRetries)*(c.cfg.RecoverDialTimeout+c.cfg.RecoverBackoffMax)
}

// enterDegraded parks a channel whose RDMA path failed: traffic is held
// in the send queue, the broken QP is kept (its QPN stays the channel's
// identity until a replacement is adopted), and the lower node id dials.
func (ch *Channel) enterDegraded(cause error) {
	ch.b.degrade(cause, ch.ctx.Node() < ch.Peer)
}

// The exclusive channel is its binding's plane (binding.go): it scores
// and probes only while healthy on RDMA, the lower node id dials through
// the QP cache, and giving up means the Mock fallback.

func (ch *Channel) gone() bool { return ch.closed }

func (ch *Channel) serving() bool {
	return !ch.closed && ch.mock == nil && ch.health == HealthHealthy
}

// probeable also excludes a passive side holding its replay: a probe
// posted before the dialer's QP reaches RTS would race its RTR transition.
func (ch *Channel) probeable() bool { return ch.serving() && !ch.resumeOnRx }

func (ch *Channel) appendRiders(dst []*Channel) []*Channel {
	if ch.closed {
		return dst
	}
	return append(dst, ch)
}

func (ch *Channel) sendPathHint() { ch.sendCtrl(kindPathHint) }

func (ch *Channel) setDialing(on bool) {
	if on {
		ch.setHealth(HealthRecovering)
	} else {
		ch.setHealth(HealthDegraded)
	}
}

// redial dials the peer's recovery listener and adopts the resulting
// connection. The CM has no cancellation, so the attempt owns an epoch
// and a settled flag: the dial timeout — armed once the receive buffers
// are allocated — claims the attempt first on a dead peer, and a late
// completion quietly returns whatever resources it acquired.
func (ch *Channel) redial(epoch uint64, onFail func()) {
	c := ch.ctx
	c.allocRecvBufs(func(bufs []Buffer) {
		if ch.b.stale(epoch) {
			c.freeBufs(bufs)
			onFail()
			return
		}
		settled := false
		c.eng.AfterBg(c.cfg.RecoverDialTimeout, func() {
			if settled || ch.b.stale(epoch) {
				return
			}
			settled = true
			c.freeBufs(bufs)
			onFail()
		})
		qp := c.QPs.Get()
		done := func(conn *verbs.Conn, err error) {
			if settled || ch.b.stale(epoch) {
				// Late completion after timeout/adoption/teardown.
				if err == nil {
					c.QPs.Put(conn.QP)
				} else if qp != nil {
					c.QPs.Put(qp)
				}
				return
			}
			settled = true
			if err != nil {
				if qp != nil {
					c.QPs.Put(qp)
				}
				c.freeBufs(bufs)
				onFail()
				return
			}
			ch.adopt(conn, bufs, true)
		}
		var own0 uint32
		if len(ch.b.qpns) > 0 {
			own0 = ch.b.qpns[0]
		}
		hello := recoverHello(ch.peerQPN, ch.peerQPN0, own0)
		if qp != nil {
			c.cm.Connect(ch.Peer, c.recoverPort, hello, qp, c.qpDepth(), nil, nil, nil, done)
			return
		}
		var srq *rnic.SRQ
		if c.cfg.UseSRQ {
			c.ensureSRQ()
			srq = c.srq
		}
		c.cm.Connect(ch.Peer, c.recoverPort, hello, nil, c.qpDepth(), c.sendCQ, c.recvCQ, srq, done)
	})
}

// listenRecover accepts re-establishment dials for degraded (or
// fallen-back) channels, matched by the QPN named in the hello.
func (c *Context) listenRecover() {
	c.cm.Listen(c.recoverPort, func(req *verbs.ConnReq) {
		target, target0, dialer0, ok := parseRecoverHello(req.PrivateData)
		if !ok {
			req.Reject("bad recovery hello")
			return
		}
		ch := c.recoverIdx[target]
		if ch != nil && (ch.closed || !ch.isChannelIdentity(req.From, target0, dialer0)) {
			// The indexed QPN was recycled to a sibling channel (or the
			// entry is plain stale); fall back to the identity scan so a
			// dial never cross-adopts another channel's protocol state.
			ch = nil
		}
		if ch == nil {
			for _, cand := range c.sortedChannels() {
				if !cand.closed && cand.isChannelIdentity(req.From, target0, dialer0) {
					ch = cand
					break
				}
			}
		}
		if ch == nil {
			req.Reject("no such channel")
			return
		}
		if ch.mock == nil && ch.health == HealthHealthy {
			// The dialer noticed a fault this side hasn't seen yet
			// (failure detection is not synchronized); degrade first so
			// adoption runs from a consistent state.
			ch.enterDegraded(fmt.Errorf("peer-initiated recovery"))
		}
		c.allocRecvBufs(func(bufs []Buffer) {
			if ch.closed {
				c.freeBufs(bufs)
				req.Reject("channel closed")
				return
			}
			c.withQP(func(qp *rnic.QP) {
				req.Accept(qp, func(conn *verbs.Conn, err error) {
					if err != nil || ch.closed {
						c.QPs.Put(qp)
						c.freeBufs(bufs)
						return
					}
					ch.adopt(conn, bufs, false)
				})
			})
		})
	})
}

// adopt installs a freshly established replacement connection: the
// broken QP (or the mock transport) is surrendered, the replacement posts
// a fresh receive pool, and the channel resumes on it (binding.go).
func (ch *Channel) adopt(conn *verbs.Conn, bufs []Buffer, initiator bool) {
	c := ch.ctx
	now := c.eng.Now()
	failback := ch.mock != nil
	if failback {
		if initiator {
			ch.closeMock()
		} else if ch.mock.conn != nil {
			// Keep draining the mock conn until the dialer closes it —
			// the windowed dedup makes the overlap harmless.
			ch.mock.conn.OnClose = nil
		}
		ch.mock = nil
		c.Stats.Failbacks++
		c.tel.Flight.Record(now, telemetry.CatFailback, int32(c.Node()), conn.QP.QPN, int64(ch.Peer), 0)
		c.tel.Trace.Instant("ch.failback", c.track, now, int64(ch.Peer))
	} else {
		// A rehydrated channel (drain.go) adopting its first post-restart
		// transport has no QP yet: it was filed under the last QPN it
		// owned before the restart.
		c.dropChannel(ch)
		if ch.qp != nil {
			c.QPs.Put(ch.qp)
		}
		outage := now.Sub(ch.degradedAt)
		c.recHist.Observe(int64(outage))
		c.tel.Trace.Complete("ch.outage", c.track, ch.degradedAt, outage, int64(ch.Peer))
	}
	ch.unregisterGauges()
	ch.qp = conn.QP
	ch.b.qp = conn.QP
	ch.peerQPN = conn.QP.RemoteQPN
	c.putChannel(ch)
	c.indexChannel(ch, ch.qp.QPN)
	if ch.recvBufs == nil && len(bufs) > 0 {
		ch.recvBufs = make(map[uint64]Buffer, len(bufs))
	}
	for _, buf := range bufs {
		id := c.nextWRID()
		ch.recvBufs[id] = buf
		if err := ch.qp.PostRecv(rnic.RecvWR{ID: id, Addr: buf.Addr, Len: buf.Len}); err != nil {
			delete(ch.recvBufs, id)
			c.Mem.Free(buf)
		}
	}
	ch.registerGauges()
	ch.b.adopted(now)
	c.Stats.Recoveries++
	c.tel.Flight.Record(now, telemetry.CatChannelRecovered, int32(c.Node()), ch.qp.QPN, int64(ch.Peer), int64(now.Sub(ch.degradedAt)))
	c.logf("channel peer=%d recovered on qpn=%d after %v (failback=%v)", ch.Peer, ch.qp.QPN, now.Sub(ch.degradedAt), failback)
	ch.resume(now, initiator)
}

// requeueUnacked rewinds the send window to the ack edge and moves the
// unacked tail back to the head of the send queue in sequence order; the
// normal pump re-transmits with identical sequence numbers, so the
// receiver can dedup anything that survived the old transport.
func (ch *Channel) requeueUnacked() {
	if ch.tx.seq == ch.tx.acked {
		return
	}
	// Walk the tail newest-first, pushing each to the head, so the queue
	// ends up in sequence order ahead of what was already waiting.
	for s := ch.tx.seq; s > ch.tx.acked; s-- {
		ps := ch.sent[s]
		if ps == nil {
			continue
		}
		delete(ch.sent, s)
		ps.staging = false
		if ps.staged.Valid() && ps.staged.region != nil && ps.staged.region.dead {
			// The staging buffer died with the NIC's registered memory;
			// restage from ps.data on the way out.
			ps.staged = Buffer{}
		}
		ps.ready = ps.staged.Valid()
		ch.sendQ.pushFront(ps)
	}
	ch.tx.rewind()
	ch.tenantRewind()
}

// giveUp gives up on RDMA re-establishment: Mock when configured,
// terminal teardown otherwise.
func (ch *Channel) giveUp(cause error) {
	c := ch.ctx
	if ch.closed || ch.mock != nil {
		return
	}
	if c.cfg.MockEnabled && c.tcp != nil && c.mockPort > 0 {
		ch.switchToMock(cause)
		return
	}
	c.Stats.ChannelsBroken++
	c.logf("channel qpn=%d peer=%d beyond recovery: %v", ch.QPN(), ch.Peer, cause)
	ch.teardown(cause)
}

// armFailback schedules the next RDMA probe for a channel running on the
// Mock fallback (§VI-C: the fallback is meant to be temporary).
func (ch *Channel) armFailback() {
	c := ch.ctx
	if c.recoverPort <= 0 || c.cfg.FailbackInterval <= 0 || c.Node() >= ch.Peer {
		return
	}
	d := c.cfg.FailbackInterval
	d += sim.Duration(c.rng.Float64() * float64(d) / 4)
	epoch := ch.b.epoch
	c.eng.AfterBg(d, func() {
		if ch.b.stale(epoch) || ch.mock == nil || !ch.mock.ready {
			return
		}
		ch.tryFailback()
	})
}

// tryFailback probes the RDMA path with a single recovery dial; messages
// keep flowing over TCP during the probe and the window dedups the
// cutover if it succeeds.
func (ch *Channel) tryFailback() {
	c := ch.ctx
	if !c.vctx.NIC.Alive() {
		ch.armFailback()
		return
	}
	ch.setHealth(HealthRecovering)
	c.Stats.RecoverAttempts++
	ch.b.epoch++
	ch.redial(ch.b.epoch, func() {
		if ch.closed || ch.mock == nil {
			return
		}
		ch.setHealth(HealthFallback)
		if ch.mock.conn == nil || !ch.mock.ready {
			// The fallback died while we probed; re-run its rendezvous.
			ch.connectMock(fmt.Errorf("mock lost during failback probe"))
			return
		}
		ch.armFailback()
	})
}
