package xrdma

import (
	"encoding/binary"
	"errors"
	"fmt"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/telemetry"
	"xrdma/internal/verbs"
)

// QP multiplexing (Config.QPsPerPeer > 0): the connection-scaling layer.
// Per-channel QPs are §III Issue 1's scalability killer — at 4000 hosts a
// full-mesh service needs millions of QPs, each with its own receive pool
// and NIC-side WQE/ICM state. The mux plane shares a small pool of QPs
// per peer node instead: channels become flyweight protocol state (seq-ack
// window + counters), every receive lands in the context's SRQ, and the
// wire header's Chan field demultiplexes inbound messages to the owning
// channel. Channels are lazy descriptors until the first send triggers a
// QP-pool attach (a CHAN_OPEN/CHAN_ACCEPT handshake over the shared QP),
// bounded by an admission cap so a process-start connection storm
// serializes deterministically instead of thundering onto the CM.
//
// Failure domains move with the sharing: keepalive probes, path-doctor
// scoring and ECMP re-pathing, and health recovery all run per shared QP
// — on the QP binding muxQP embeds (binding.go).
// One sick QP rotates its flow label once for all attached channels; one
// broken QP re-establishes once, and every attached channel replays its
// unacked window tail over the replacement — the Algorithm 1 dedup makes
// each cutover exactly-once per channel.

// ErrMuxDisabled is returned when mux-only APIs run on a legacy context.
var ErrMuxDisabled = errors.New("xrdma: QP multiplexing not enabled (Config.QPsPerPeer == 0)")

// Channel attach states. The zero value means "established" so legacy
// channels (and passive muxed channels, created attached) need no setup.
const (
	attachDone    uint8 = iota // established; send path live
	attachLazy                 // descriptor only; first send triggers attach
	attachQueued               // waiting for an admission slot
	attachPending              // CHAN_OPEN in flight (or mux QP still dialing)
)

type muxQPState uint8

const (
	muxDialing muxQPState = iota
	muxReady
	muxDegraded
	muxRecovering
)

// peerMux is the per-peer QP pool: at most Config.QPsPerPeer shared QPs,
// filled on demand and then assigned round-robin.
type peerMux struct {
	peer  fabric.NodeID
	port  int
	slots []*muxQP
	next  int
}

// muxQP is one shared QP and the channels multiplexed onto it. The
// embedded binding owns the QP (qp, qpns), its keepalive, path doctor and
// redial loop; the channels are its riders.
type muxQP struct {
	qpBinding
	pm        *peerMux // nil on the passive (accepting) side
	slot      int
	initiator bool
	port      int // establishment port — also the reattach rendezvous
	state     muxQPState
	dead      bool

	chans    map[uint32]*Channel // local cid → attached channel
	peerCIDs map[uint32]uint32   // peer cid → local cid (CHAN_OPEN dedup)
	cids     []uint32            // attach order == ascending cid (deterministic walks)

	// Hot-upgrade plane: the version and capability set every channel on
	// this shared QP inherits (0/0 = legacy v1 + baselineCaps).
	negVer   uint8
	peerCaps uint32

	// Weighted DRR at the shared SQ; nil unless the context is tenanted.
	sched *sqSched
}

// --- mux hello (CM private data) --------------------------------------------

const (
	muxHelloMagic = 0x5158 // "XQ" — mux QP establishment
	// Mux hello format versions: 1 is the legacy 12-byte layout, 2 appends
	// the 6-byte negotiation block ([minVer,maxVer] + capability bitmap).
	muxHelloFmt    = 1
	muxHelloFmtMax = 2
)

func encodeMuxHello(slot int, reattach bool, targetQPN uint32) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint16(b, muxHelloMagic)
	b[2] = muxHelloFmt
	if reattach {
		b[3] = 1
	}
	binary.LittleEndian.PutUint16(b[4:], uint16(slot))
	binary.LittleEndian.PutUint32(b[6:], targetQPN)
	return b
}

// muxHelloBytes is the dial-time hello: the legacy 12-byte format on the
// v1 plane (byte-identical to the pre-negotiation build), or the format-2
// layout carrying this context's version range and capability bitmap.
func (c *Context) muxHelloBytes(slot int, reattach bool, targetQPN uint32) []byte {
	if !c.helloEnabled() {
		return encodeMuxHello(slot, reattach, targetQPN)
	}
	b := make([]byte, 18)
	copy(b, encodeMuxHello(slot, reattach, targetQPN))
	b[2] = muxHelloFmtMax
	h := c.localHello()
	b[12] = h.minVer
	b[13] = h.maxVer
	binary.LittleEndian.PutUint32(b[14:], h.caps)
	return b
}

type muxHello struct {
	slot     int
	reattach bool
	target   uint32

	// Negotiation block (format 2 only). neg distinguishes "legacy hello,
	// assume v1 + baselineCaps" from an explicit offer.
	neg            bool
	minVer, maxVer uint8
	caps           uint32
}

// muxHelloVerdict classifies CM private data for the Listen dispatcher.
type muxHelloVerdict uint8

const (
	muxHelloNo     muxHelloVerdict = iota // not a mux hello (try chanHello / legacy)
	muxHelloYes                           // well-formed mux hello
	muxHelloBadVer                        // mux hello in a format this build does not speak
)

func parseMuxHello(b []byte) (muxHello, muxHelloVerdict) {
	if len(b) < 12 || binary.LittleEndian.Uint16(b) != muxHelloMagic {
		return muxHello{}, muxHelloNo
	}
	if b[2] < muxHelloFmt || b[2] > muxHelloFmtMax {
		// A future hello format: loudly classified (counted + rejected by
		// the caller) instead of the old silent drop that left the dialer
		// waiting out its CM timeout.
		return muxHello{minVer: b[2], maxVer: b[2]}, muxHelloBadVer
	}
	h := muxHello{
		slot:     int(binary.LittleEndian.Uint16(b[4:])),
		reattach: b[3] == 1,
		target:   binary.LittleEndian.Uint32(b[6:]),
	}
	if b[2] >= 2 {
		if len(b) < 18 {
			return muxHello{minVer: b[2], maxVer: b[2]}, muxHelloBadVer
		}
		h.neg = true
		h.minVer = b[12]
		h.maxVer = b[13]
		h.caps = binary.LittleEndian.Uint32(b[14:])
	}
	return h, muxHelloYes
}

// --- context surface ---------------------------------------------------------

func (c *Context) muxEnabled() bool { return c.cfg.QPsPerPeer > 0 }

func (c *Context) nextCID() uint32 { c.cidSeq++; return c.cidSeq }

// muxDepth is the shared QP's send-queue capacity: it must cover the sum
// of the attached channels' windows (queue storage grows lazily, so the
// generous cap is free until used).
func (c *Context) muxDepth() int {
	if d := c.cfg.MuxQPDepth; d > 0 {
		return d
	}
	return 4096
}

// muxDialTimeout budgets a mux redial. Unlike per-channel recovery,
// which dials with recycled QPs from the QP cache, shared QPs are
// SRQ-bound and cannot be cached — both sides pay the full QP
// create+modify hardware-command cost inside the dial window, so the
// configured timeout alone would expire right as the accept lands.
func (c *Context) muxDialTimeout() sim.Duration {
	return c.cfg.RecoverDialTimeout + 2*rnic.QPCreateCost + 8*rnic.QPModifyCost
}

// ChannelTo returns a lazy channel descriptor to (node, port): a few
// hundred bytes of state and no QP, window or buffer until the first send
// (or Ping) triggers the attach handshake. Requires QP multiplexing.
// Options label the descriptor (WithTenant) before any frame leaves.
func (c *Context) ChannelTo(node fabric.NodeID, port int, opts ...ChannelOpt) (*Channel, error) {
	if !c.muxEnabled() {
		return nil, ErrMuxDisabled
	}
	now := c.eng.Now()
	ch := &Channel{
		ctx: c, Peer: node, cid: c.nextCID(), muxPort: port,
		attach: attachLazy, lastProgress: now, OpenedAt: now,
		retryTokens: retryBudgetCap,
	}
	for _, opt := range opts {
		if err := opt(ch); err != nil {
			return nil, err
		}
	}
	c.chanByCID[ch.cid] = ch
	return ch, nil
}

// requestAttach moves a lazy descriptor toward establishment, honoring
// the admission cap.
func (ch *Channel) requestAttach() {
	if ch.attach != attachLazy || ch.closed {
		return
	}
	c := ch.ctx
	if c.drain != DrainServing {
		// A draining node starts no new work: refuse loudly instead of
		// parking — the admission FIFO is being flushed, not served.
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatDrain, int32(c.Node()), 0, int64(ch.cid), drainEvRefusal)
		ch.finishAttach(ErrDraining)
		return
	}
	// Shed gate: under global memory pressure, or while this channel's
	// tenant is in a shed episode, new attaches queue instead of
	// establishing — graceful degradation reusing the admission FIFO.
	if ch.shedGated() {
		ch.attach = attachQueued
		c.attachQ = append(c.attachQ, ch)
		if t := ch.tenant; t != nil {
			t.AttachSheds++
			c.tel.Flight.Record(c.eng.Now(), telemetry.CatTenantShed, int32(c.Node()), uint32(t.id), int64(ch.cid), 1)
		}
		return
	}
	if lim := c.cfg.AttachAdmission; lim > 0 && c.attachActive >= lim {
		ch.attach = attachQueued
		c.attachQ = append(c.attachQ, ch)
		return
	}
	ch.startAttach()
}

func (ch *Channel) startAttach() {
	c := ch.ctx
	ch.attach = attachPending
	c.attachActive++
	mx := c.muxFor(ch.Peer, ch.muxPort)
	ch.mx, ch.b = mx, &mx.qpBinding
	mx.enroll(ch)
}

// attachRelease frees one admission slot and starts the first FIFO head
// whose shed gate (if any) has lifted; still-gated heads rotate to the
// tail and wait for the attachKick when their episode ends.
func (c *Context) attachRelease() {
	if c.attachActive > 0 {
		c.attachActive--
	}
	for scan := len(c.attachQ); scan > 0 && len(c.attachQ) > 0; scan-- {
		next := c.attachQ[0]
		c.attachQ = c.attachQ[1:]
		if next.closed || next.attach != attachQueued {
			continue
		}
		if next.shedGated() {
			c.attachQ = append(c.attachQ, next)
			continue
		}
		next.startAttach()
		return
	}
}

// finishAttach completes (or fails) a lazy channel's establishment.
func (ch *Channel) finishAttach(err error) {
	c := ch.ctx
	held := ch.attach == attachPending
	cbs := ch.attachCBs
	ch.attachCBs = nil
	if err != nil {
		ch.attach = attachLazy // teardown below must not re-release
		if held {
			c.attachRelease()
		}
		for _, cb := range cbs {
			cb(err)
		}
		if !ch.closed {
			c.Stats.ChannelsBroken++
			ch.teardown(err)
		}
		return
	}
	ch.attach = attachDone
	ch.tx = newTxWindow(c.cfg.WindowDepth)
	ch.rx = newRxWindow(c.cfg.WindowDepth)
	ch.qp = ch.mx.qp
	// Channels inherit the shared QP's negotiated version and caps: the
	// hello ran once per transport, not once per flyweight channel.
	ch.setNegotiated(ch.mx.negVer, ch.mx.peerCaps)
	c.Stats.ChannelsOpened++
	ch.registerGauges()
	if held {
		c.attachRelease()
	}
	for _, cb := range cbs {
		cb(nil)
	}
	ch.pump()
}

// muxFor picks (creating on demand) the shared QP a new channel attaches
// to: fill the pool first, then round-robin, replacing dead slots.
func (c *Context) muxFor(peer fabric.NodeID, port int) *muxQP {
	pm := c.mux[peer]
	if pm == nil {
		pm = &peerMux{peer: peer, port: port}
		c.mux[peer] = pm
	}
	if len(pm.slots) < c.cfg.QPsPerPeer {
		mx := c.newMuxQP(pm, len(pm.slots))
		pm.slots = append(pm.slots, mx)
		return mx
	}
	i := pm.next % len(pm.slots)
	pm.next++
	mx := pm.slots[i]
	if mx.dead {
		mx = c.newMuxQP(pm, i)
		pm.slots[i] = mx
	}
	return mx
}

func (c *Context) newMuxQP(pm *peerMux, slot int) *muxQP {
	mx := &muxQP{
		pm: pm, slot: slot, initiator: true, port: pm.port,
		state:    muxDialing,
		chans:    make(map[uint32]*Channel),
		peerCIDs: make(map[uint32]uint32),
	}
	mx.qpBinding = qpBinding{c: c, plane: mx, peer: pm.peer}
	mx.initSched()
	c.muxQPs = append(c.muxQPs, mx)
	epoch := mx.epoch
	hello := c.muxHelloBytes(slot, false, 0)
	c.ensureSRQ()
	c.cm.Connect(pm.peer, pm.port, hello, nil, c.muxDepth(), c.sendCQ, c.recvCQ, c.srq, func(conn *verbs.Conn, err error) {
		if mx.stale(epoch) {
			if err == nil {
				c.vctx.NIC.DestroyQP(conn.QP)
			}
			return
		}
		if err != nil {
			mx.giveUp(fmt.Errorf("xrdma: mux dial to %d:%d: %w", pm.peer, pm.port, err))
			return
		}
		mx.established(conn)
	})
	return mx
}

// established installs the freshly dialed QP and opens every waiting
// channel. The acceptor's REP carries the settled negotiation verdict
// (absent from legacy acceptors → v1 + baselineCaps).
func (mx *muxQP) established(conn *verbs.Conn) {
	if verdict, ok := parseChanHello(conn.PeerData); ok {
		mx.negVer = verdict.maxVer
		mx.peerCaps = verdict.caps
	}
	mx.installQP(conn.QP)
	for _, ch := range mx.appendRiders(nil) {
		if ch.attach == attachPending {
			mx.sendChanOpen(ch)
		}
	}
}

// installQP makes qp the shared QP, ready to carry traffic.
func (mx *muxQP) installQP(qp *rnic.QP) {
	c := mx.c
	mx.qp = qp
	c.muxByQPN[qp.QPN] = mx
	c.muxRecoverIdx[qp.QPN] = mx
	mx.qpns = append(mx.qpns, qp.QPN)
	mx.state = muxReady
	mx.lastComm = c.eng.Now()
}

// enroll attaches a channel to this mux QP; the CHAN_OPEN goes out as
// soon as the QP is live.
func (mx *muxQP) enroll(ch *Channel) {
	mx.chans[ch.cid] = ch
	mx.cids = append(mx.cids, ch.cid)
	if mx.state == muxReady {
		mx.sendChanOpen(ch)
	}
}

// detach removes a channel (teardown).
func (mx *muxQP) detach(ch *Channel) {
	delete(mx.chans, ch.cid)
	for i, cid := range mx.cids {
		if cid == ch.cid {
			mx.cids = append(mx.cids[:i], mx.cids[i+1:]...)
			break
		}
	}
	if ch.peerCID != 0 {
		delete(mx.peerCIDs, ch.peerCID)
	}
}

// appendRiders appends the live channels in ascending cid order (cids are
// assigned monotonically, so attach order is already sorted).
func (mx *muxQP) appendRiders(dst []*Channel) []*Channel {
	for _, cid := range mx.cids {
		if ch := mx.chans[cid]; ch != nil && !ch.closed {
			dst = append(dst, ch)
		}
	}
	return dst
}

// initSched attaches the weighted DRR scheduler when the context is
// tenanted; zero-tenant configs keep the direct post path bit-for-bit.
func (mx *muxQP) initSched() {
	if len(mx.c.cfg.Tenants) == 0 {
		return
	}
	mx.sched = newSQSched(mx.c, func() uint32 {
		if mx.qp != nil {
			return mx.qp.QPN
		}
		return 0
	})
}

func (mx *muxQP) sendChanOpen(ch *Channel) {
	h := &wireHdr{Kind: kindChanOpen, Chan: ch.cid, MsgID: uint64(ch.muxPort)}
	if t := ch.tenant; t != nil {
		// The label rides the open so the passive side binds the tenant
		// before the first data frame arrives.
		h.Flags |= flagTenant
		h.Tenant = t.id
		h.TLabel = t.label
	}
	mx.sendCtrl(h)
}

// sendCtrl emits a mux-plane control frame directly on the shared QP.
func (mx *muxQP) sendCtrl(h *wireHdr) {
	if mx.dead || mx.state != muxReady {
		return
	}
	ps := mx.c.newCtrl(nil, h)
	mx.c.flow.postDirect(mx.qp, &ps.wr, wrEntry{kind: wrMuxCtrl, ps: ps, mx: mx})
	mx.lastComm = mx.c.eng.Now()
}

// ctrlCompletion handles the CQE of a mux-plane control frame. The
// stale-flush guard keeps completions from an already-replaced QP from
// re-failing the adopted one.
func (mx *muxQP) ctrlCompletion(ps *pendingSend, cqe rnic.CQE) {
	c := mx.c
	ps.completed(cqe.Status)
	if cqe.Status != rnic.StatusOK && !mx.dead && cqe.QPN == mx.qp.QPN {
		mx.fail(fmt.Errorf("xrdma: mux ctrl send failed: %v", cqe.Status))
	}
	c.releaseSend(ps)
}

// --- passive side ------------------------------------------------------------

// acceptMux handles a mux hello on an application Listen port: a fresh
// shared QP (attach) or the re-establishment of a broken one (reattach).
func (c *Context) acceptMux(req *verbs.ConnReq, hello muxHello, port int) {
	if c.srq == nil {
		req.Reject("mux requires SRQ mode")
		return
	}
	c.ensureSRQ()
	if hello.reattach {
		mx := c.muxRecoverIdx[hello.target]
		if mx == nil || mx.dead || mx.peer != req.From {
			req.Reject("no such mux QP")
			return
		}
		if mx.state == muxReady {
			// The dialer noticed the fault first; park our side so the
			// adoption runs from a consistent state.
			mx.fail(fmt.Errorf("peer-initiated mux recovery"))
		}
		c.vctx.NIC.CreateQP(c.muxDepth(), c.muxDepth(), c.sendCQ, c.recvCQ, c.srq, func(qp *rnic.QP) {
			req.Accept(qp, func(conn *verbs.Conn, err error) {
				if err != nil || mx.dead {
					c.vctx.NIC.DestroyQP(qp)
					return
				}
				mx.adopt(conn, false)
			})
		})
		return
	}
	if c.drain != DrainServing {
		// Fresh shared-QP establishment is new work; a draining node
		// refuses it (reattach above still serves in-flight channels).
		c.refuseDraining(req)
		return
	}
	ver, caps, ok := c.settle(chanHello{minVer: hello.minVer, maxVer: hello.maxVer, caps: hello.caps}, hello.neg)
	if !ok {
		c.noteVerMismatch(req.From, 0, hello.minVer, hello.maxVer)
		req.Reject(errVersion.Error())
		return
	}
	mx := &muxQP{
		slot: hello.slot, initiator: false, port: port,
		state:    muxDialing,
		chans:    make(map[uint32]*Channel),
		peerCIDs: make(map[uint32]uint32),
		negVer:   ver, peerCaps: caps,
	}
	mx.qpBinding = qpBinding{c: c, plane: mx, peer: req.From}
	if hello.neg {
		req.ReplyData = encodeChanHello(chanHello{minVer: ver, maxVer: ver, caps: caps})
	}
	mx.initSched()
	c.muxQPs = append(c.muxQPs, mx)
	c.vctx.NIC.CreateQP(c.muxDepth(), c.muxDepth(), c.sendCQ, c.recvCQ, c.srq, func(qp *rnic.QP) {
		req.Accept(qp, func(conn *verbs.Conn, err error) {
			if err != nil {
				c.vctx.NIC.DestroyQP(qp)
				mx.dead = true
				return
			}
			mx.installQP(conn.QP)
		})
	})
}

// --- inbound demux -----------------------------------------------------------

// handleRecv routes one receive completion on a shared QP: mux-plane
// control frames are handled here, everything else demultiplexes to the
// owning channel by the header's Chan field (the receiver's cid).
func (mx *muxQP) handleRecv(cqe rnic.CQE) {
	c := mx.c
	if cqe.Status != rnic.StatusOK {
		c.recycleSRQ(cqe.WRID)
		mx.fail(fmt.Errorf("xrdma: mux recv completion error: %v", cqe.Status))
		return
	}
	mx.lastComm = c.eng.Now()
	h, hdrLen, err := decodeHdr(cqe.Data)
	var wireVer uint8
	if len(cqe.Data) > 2 {
		wireVer = cqe.Data[2]
	}
	c.recycleSRQ(cqe.WRID)
	if err != nil {
		if errors.Is(err, errVersion) {
			// A frame from a release outside our version range: counted as
			// an upgrade-plane event, not lumped in with corruption.
			c.noteVerMismatch(mx.peer, cqe.QPN, wireVer, wireVer)
		}
		c.logf("mux inbound decode error from peer %d: %v", mx.peer, err)
		return
	}
	switch h.Kind {
	case kindChanOpen:
		mx.handleChanOpen(&h)
	case kindChanAccept:
		mx.handleChanAccept(&h)
	case kindChanClose:
		if ch := mx.chans[h.Chan]; ch != nil {
			ch.peerClosed = true
			if ch.attach == attachPending {
				// The peer refused our CHAN_OPEN (it is draining): resolve
				// the waiting attach loudly instead of letting it hang.
				ch.finishAttach(ErrDraining)
				return
			}
			ch.teardown(nil)
		}
	case kindMuxSick:
		// The responder's doctor gave up on the shared QP (e.g. inbound
		// corruption its own flow-label rotation cannot cure). Recovery is
		// initiator-owned: treat the report as our own escalation.
		if mx.initiator {
			mx.fail(fmt.Errorf("xrdma: peer reported shared QP sick"))
		}
	case kindPathHint:
		// The peer's doctor blames the path this QP's flow label picks.
		mx.doctor.noteHint(c, c.eng.Now())
	default:
		ch := mx.chans[h.Chan]
		if ch == nil || ch.closed {
			return
		}
		var pay []byte
		if size := int(h.Size); size > 0 && len(cqe.Data) >= hdrLen+size {
			pay = cqe.Data[hdrLen : hdrLen+size]
		}
		ch.handleWire(&h, pay, false, cqe.Blame)
	}
}

// handleChanOpen creates the passive half of a muxed channel. The peer's
// cid keys the dedup: a replayed open (lost accept across a mux
// recovery) only re-sends the accept.
func (mx *muxQP) handleChanOpen(h *wireHdr) {
	c := mx.c
	if lcid, dup := mx.peerCIDs[h.Chan]; dup {
		mx.sendCtrl(&wireHdr{Kind: kindChanAccept, Chan: h.Chan, MsgID: uint64(lcid)})
		return
	}
	if c.drain != DrainServing {
		// New channel over an existing shared QP is still new work: close
		// it back so the dialer's attach fails with ErrDraining instead of
		// hanging until the restart.
		c.Stats.DrainRefusals++
		c.tel.Flight.Record(c.eng.Now(), telemetry.CatDrain, int32(c.Node()), mx.qp.QPN, int64(h.Chan), drainEvRefusal)
		mx.sendCtrl(&wireHdr{Kind: kindChanClose, Chan: h.Chan})
		return
	}
	now := c.eng.Now()
	ch := &Channel{
		ctx: c, Peer: mx.peer, cid: c.nextCID(), peerCID: h.Chan, mx: mx, b: &mx.qpBinding, qp: mx.qp,
		muxPort: int(h.MsgID),
		tx:      newTxWindow(c.cfg.WindowDepth), rx: newRxWindow(c.cfg.WindowDepth),
		lastProgress: now, OpenedAt: now, retryTokens: retryBudgetCap,
	}
	ch.setNegotiated(mx.negVer, mx.peerCaps)
	if h.Flags&flagTenant != 0 && len(c.tenants) > 0 {
		ch.tenant = c.resolveTenant(h)
	}
	c.chanByCID[ch.cid] = ch
	mx.chans[ch.cid] = ch
	mx.cids = append(mx.cids, ch.cid)
	mx.peerCIDs[ch.peerCID] = ch.cid
	c.Stats.ChannelsOpened++
	ch.registerGauges()
	mx.sendCtrl(&wireHdr{Kind: kindChanAccept, Chan: h.Chan, MsgID: uint64(ch.cid)})
	if c.onChannel != nil {
		c.onChannel(ch)
	}
}

func (mx *muxQP) handleChanAccept(h *wireHdr) {
	ch := mx.c.chanByCID[h.Chan]
	if ch == nil || ch.closed || ch.attach == attachDone {
		return
	}
	ch.peerCID = uint32(h.MsgID)
	mx.peerCIDs[ch.peerCID] = ch.cid
	ch.finishAttach(nil)
}

// --- shared-QP recovery ------------------------------------------------------

// fail parks every attached channel and starts re-establishing the
// shared QP. The QP is the failure domain: channels recover together,
// each replaying its own unacked tail exactly once.
func (mx *muxQP) fail(cause error) {
	c := mx.c
	if mx.dead || mx.state == muxDegraded || mx.state == muxRecovering {
		return
	}
	if mx.state == muxDialing {
		mx.giveUp(cause)
		return
	}
	if !mx.initiator {
		// Only the initiator can redial a shared QP — the passive side has
		// no dial route. Ask it to. When sickness was declared by the path
		// doctor (not a hard verbs error) the QP is still in RTS, so this
		// ctrl frame rides the reliable wire. Fire-and-forget (nil cb): if
		// the QP really is broken the post just flushes and the initiator's
		// keepalive finds out on its own.
		h := &wireHdr{Kind: kindMuxSick}
		buf := make([]byte, h.wireBytes())
		h.encode(buf)
		c.flow.postDirect(mx.qp, &rnic.SendWR{Op: rnic.OpSend, Len: len(buf), Data: buf}, wrEntry{})
	}
	mx.state = muxDegraded
	if mx.sched != nil {
		// Queued unposted frames drop here; requeueUnacked replays them
		// through the scheduler after adoption.
		mx.sched.reset()
	}
	mx.degrade(cause, mx.initiator)
}

// The shared QP is its binding's plane (binding.go): it scores and probes
// while ready, only the initiator dials, and giving up tears down every
// channel on it.

func (mx *muxQP) gone() bool      { return mx.dead }
func (mx *muxQP) serving() bool   { return !mx.dead && mx.state == muxReady }
func (mx *muxQP) probeable() bool { return mx.serving() }
func (mx *muxQP) sendPathHint()   { mx.sendCtrl(&wireHdr{Kind: kindPathHint}) }

func (mx *muxQP) setDialing(on bool) {
	if on {
		mx.state = muxRecovering
	} else {
		mx.state = muxDegraded
	}
}

// redial dials a replacement for the broken shared QP, naming it in a
// reattach hello. Shared QPs are SRQ-bound and never come from the QP
// cache, so the timeout (muxDialTimeout, which covers QP creation on
// both sides) is armed before the dial.
func (mx *muxQP) redial(epoch uint64, onFail func()) {
	c := mx.c
	settled := false
	c.eng.AfterBg(c.muxDialTimeout(), func() {
		if settled || mx.stale(epoch) {
			return
		}
		settled = true
		onFail()
	})
	hello := c.muxHelloBytes(mx.slot, true, mx.qp.RemoteQPN)
	c.ensureSRQ()
	c.cm.Connect(mx.peer, mx.port, hello, nil, c.muxDepth(), c.sendCQ, c.recvCQ, c.srq, func(conn *verbs.Conn, err error) {
		if settled || mx.stale(epoch) {
			if err == nil {
				c.vctx.NIC.DestroyQP(conn.QP)
			}
			return
		}
		settled = true
		if err != nil {
			onFail()
			return
		}
		mx.adopt(conn, true)
	})
}

// adopt swaps in the replacement shared QP and resumes every attached
// channel on it (each replays its own unacked tail; the receiver's window
// dedups survivors); pending attaches re-send their CHAN_OPEN.
func (mx *muxQP) adopt(conn *verbs.Conn, initiator bool) {
	c := mx.c
	now := c.eng.Now()
	if mx.qp != nil {
		delete(c.muxByQPN, mx.qp.QPN)
		// Shared QPs are SRQ-bound and never enter the (per-channel) QP
		// cache: a recycled SRQ QP handed to an exclusive channel could
		// not post per-channel receives.
		c.vctx.NIC.DestroyQP(mx.qp)
	}
	mx.installQP(conn.QP)
	mx.adopted(now)
	if mx.sched != nil {
		mx.sched.reset()
	}
	c.Stats.Recoveries++
	c.tel.Flight.Record(now, telemetry.CatChannelRecovered, int32(c.Node()), mx.qp.QPN, int64(mx.peer), int64(len(mx.chans)))
	c.tel.Trace.Instant("mux.recovered", c.track, now, int64(mx.peer))
	c.logf("mux peer=%d recovered on qpn=%d (%d channels, initiator=%v)", mx.peer, mx.qp.QPN, len(mx.chans), initiator)
	for _, ch := range mx.appendRiders(nil) {
		if ch.attach != attachDone {
			if initiator && ch.attach == attachPending {
				mx.sendChanOpen(ch)
			}
			continue
		}
		ch.qp = mx.qp
		ch.resume(now, initiator)
	}
}

// giveUp is the terminal path: the redial budget ran out (or the initial
// dial failed), so every channel on this QP dies. Muxed channels have no
// per-channel Mock fallback — the shared QP is the unit of fate (DESIGN
// §12).
func (mx *muxQP) giveUp(cause error) {
	if mx.dead {
		return
	}
	mx.dead = true // strands in-flight dials and timers
	c := mx.c
	if mx.sched != nil {
		mx.sched.reset()
	}
	c.logf("mux peer=%d beyond recovery (%d channels): %v", mx.peer, len(mx.chans), cause)
	for _, ch := range mx.appendRiders(nil) {
		if ch.attach == attachPending || ch.attach == attachQueued {
			ch.finishAttach(cause)
			continue
		}
		c.Stats.ChannelsBroken++
		ch.teardown(cause)
	}
	if mx.qp != nil {
		delete(c.muxByQPN, mx.qp.QPN)
		c.vctx.NIC.DestroyQP(mx.qp)
		mx.qp = nil
	}
	for _, q := range mx.qpns {
		if c.muxRecoverIdx[q] == mx {
			delete(c.muxRecoverIdx, q)
		}
	}
}
