package xrdma

import (
	"math/bits"

	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// Per-message state pools. X-RDMA's data path allocates nothing per
// message: one run-to-complete thread per context, pre-registered cached
// buffers, send state sized up front (§IV-B). The model's Go objects
// follow the same rule. Engine callbacks that re-arm (poll tick, event
// wake, scan timers, delayed ack) are built once; per-message state —
// send records with their SendWR and wire buffer, response waiters, CQE
// dispatch slots, delayed-ack timers, rendezvous pulls and their fragment
// READs — cycles through free lists owned by the Context. Nothing is
// pooled per Channel, so an idle flyweight descriptor costs no more than
// before.
//
// Release rule for a send record (pendingSend): it returns to the pool
// only once the peer's seq-ack retired it (ackDone; control frames are
// born acked) AND every send CQE for a WR posted from it was dispatched
// (wrOut == 0) AND the NIC holds no retransmission job for its embedded
// WR (SendWR.Idle). Until then ch.sendQ, ch.sent, the tx window's on-acked
// hook, requeueUnacked's replay, the handoff encoder or the WR map may
// still reach it. Records a teardown, a failed staging or a handoff drops
// are never released: an in-flight staging callback may still hold them,
// so the GC takes them. Blame-sampled requests transmit from their own
// SendWR and buffer, because reqBlame.wr is read after the ack.

// poolCap bounds every free list, so a burst does not pin its peak.
const poolCap = 4096

// Wire buffers come in power-of-two classes from 1<<wireMinShift bytes;
// frames above the largest class (oversized SmallMsgSize configs) are
// allocated per transmit.
const (
	wireMinShift = 6
	wireClasses  = 8 // 64 B … 8 KiB: every default inline frame fits
)

type pools struct {
	sends   freeList[pendingSend]
	reqs    freeList[reqState]
	thunks  freeList[cqeThunk]
	acks    freeList[ackTimer]
	fetches freeList[fetchOp]
	pulls   freeList[pull]
	wire    [wireClasses][][]byte
}

// freeList is a LIFO of recycled objects, capped at poolCap.
type freeList[T any] struct{ items []*T }

// get pops a recycled object, or returns nil when the list is empty.
func (f *freeList[T]) get() *T {
	k := len(f.items) - 1
	if k < 0 {
		return nil
	}
	x := f.items[k]
	f.items[k] = nil
	f.items = f.items[:k]
	return x
}

func (f *freeList[T]) put(x *T) {
	if len(f.items) < poolCap {
		f.items = append(f.items, x)
	}
}

// wireClass maps a frame length to its size class, or -1 when unpooled.
func wireClass(n int) int {
	if n <= 1<<wireMinShift {
		return 0
	}
	k := bits.Len(uint(n-1)) - wireMinShift
	if k >= wireClasses {
		return -1
	}
	return k
}

// wireBuf returns an n-byte frame buffer. Its contents are stale: the
// encoder overwrites every header byte and the payload copy the rest.
func (c *Context) wireBuf(n int) []byte {
	k := wireClass(n)
	if k < 0 {
		return make([]byte, n)
	}
	fl := c.pools.wire[k]
	if j := len(fl) - 1; j >= 0 {
		b := fl[j]
		fl[j] = nil
		c.pools.wire[k] = fl[:j]
		if poisonPools {
			checkPoisonBuf(b)
		}
		return b[:n]
	}
	return make([]byte, n, 1<<(wireMinShift+k))
}

// putWire recycles a frame buffer no WR or packet can still read.
func (c *Context) putWire(b []byte) {
	if b == nil {
		return
	}
	k := wireClass(cap(b))
	if k < 0 || cap(b) != 1<<(wireMinShift+k) || len(c.pools.wire[k]) >= poolCap {
		return
	}
	b = b[:cap(b)]
	if poisonPools {
		poisonBuf(b)
	}
	c.pools.wire[k] = append(c.pools.wire[k], b)
}

// newSend takes a send record for ch from the pool.
func (c *Context) newSend(ch *Channel, kind msgKind, data []byte, size int, msgID uint64) *pendingSend {
	ps := c.pools.sends.get()
	if ps == nil {
		ps = &pendingSend{}
		ps.onAck, ps.onStaged = ps.acked, ps.stageDone
	} else if poisonPools {
		checkPoisonSend(ps)
		ps.reset()
	}
	ps.ch, ps.kind, ps.data, ps.size, ps.msgID = ch, kind, data, size, msgID
	return ps
}

// releaseSend returns ps to the pool once the release rule holds; every
// event that can complete the rule (ack, CQE) calls it.
func (c *Context) releaseSend(ps *pendingSend) {
	if !ps.ackDone || ps.wrOut != 0 || !ps.wr.Idle() {
		return
	}
	c.putWire(ps.wire)
	ps.reset()
	if poisonPools {
		poisonSend(ps)
	}
	c.pools.sends.put(ps)
}

// embeddedWR prepares ps's own SendWR for a transmission of n frame
// bytes, or returns nil when the NIC may still hold it (a CQE pending or a
// retransmission queued) and the caller must allocate.
func (c *Context) embeddedWR(ps *pendingSend, n int) *rnic.SendWR {
	if ps.wrOut != 0 || !ps.wr.Idle() {
		return nil
	}
	c.putWire(ps.wire)
	ps.wire = c.wireBuf(n)
	ps.wr = rnic.SendWR{Op: rnic.OpSend, Data: ps.wire}
	return &ps.wr
}

// completed accounts one send CQE against ps. A failed WR's packets may
// still reach a live peer QP, so its frame bytes are never recycled.
func (ps *pendingSend) completed(st rnic.Status) {
	ps.wrOut--
	if st != rnic.StatusOK {
		ps.wire = nil
	}
}

// newReq takes a response waiter from the pool.
func (c *Context) newReq(cb func(*Msg, error), sentAt sim.Time) *reqState {
	rs := c.pools.reqs.get()
	if rs == nil {
		rs = &reqState{}
	} else if poisonPools {
		checkPoisonReq(rs)
		*rs = reqState{}
	}
	rs.cb, rs.sentAt = cb, sentAt
	return rs
}

// putReq recycles a waiter that left ch.pending and whose callback ran.
func (c *Context) putReq(rs *reqState) {
	*rs = reqState{}
	if poisonPools {
		poisonReq(rs)
	}
	c.pools.reqs.put(rs)
}

// cqeThunk carries one polled completion to its dispatch instant. The
// engine callback is built once, when the slot is first allocated. Slots
// rather than a FIFO: ProcessEvent/Polling may poll again while an earlier
// batch is still pending, so fire order need not match push order.
type cqeThunk struct {
	c    *Context
	cqe  rnic.CQE
	recv bool
	fire func()
}

func (t *cqeThunk) run() {
	c, cqe, recv := t.c, t.cqe, t.recv
	c.putThunk(t)
	if recv {
		c.dispatchRecv(cqe)
	} else {
		c.dispatchSend(cqe)
	}
}

// dispatchAt schedules cqe's dispatch at t.
func (c *Context) dispatchAt(t sim.Time, cqe rnic.CQE, recv bool) {
	th := c.pools.thunks.get()
	if th == nil {
		th = &cqeThunk{}
		th.fire = th.run
	} else if poisonPools {
		checkPoisonThunk(th)
	}
	th.c, th.cqe, th.recv = c, cqe, recv
	c.eng.At(t, th.fire)
}

func (c *Context) putThunk(t *cqeThunk) {
	t.cqe = rnic.CQE{}
	if poisonPools {
		poisonThunk(t)
	}
	c.pools.thunks.put(t)
}

// ackTimer is a channel's armed delayed-ack timer (maybeAck). The channel
// holds a pointer, not the event plus a callback, so the flyweight
// descriptor stays within its size class.
type ackTimer struct {
	ch   *Channel
	ev   sim.Event
	fire func()
}

func (t *ackTimer) run() {
	ch := t.ch
	ch.ackT = nil
	ch.ctx.putAckTimer(t)
	if !ch.closed && ch.rx.ackValue() > ch.lastAckVal {
		ch.sendCtrl(kindAck)
	}
}

// armAck schedules the delayed ack unless one is already armed.
func (ch *Channel) armAck() {
	if ch.ackT != nil {
		return
	}
	c := ch.ctx
	t := c.pools.acks.get()
	if t == nil {
		t = &ackTimer{}
		t.fire = t.run
	}
	t.ch = ch
	t.ev = c.eng.After(c.cfg.AckDelay, t.fire)
	ch.ackT = t
}

// cancelAck disarms the delayed ack, if armed.
func (ch *Channel) cancelAck() {
	t := ch.ackT
	if t == nil {
		return
	}
	ch.ackT = nil
	ch.ctx.eng.Cancel(t.ev)
	ch.ctx.putAckTimer(t)
}

func (c *Context) putAckTimer(t *ackTimer) {
	t.ch, t.ev = nil, sim.Event{}
	c.pools.acks.put(t)
}

// newCtrl builds a control frame for h on ch (nil on the mux plane),
// encoded into a pooled buffer with its WR ready to post. Control frames
// are window-exempt, so the record is born acked and returns to the pool
// at its send CQE.
func (c *Context) newCtrl(ch *Channel, h *wireHdr) *pendingSend {
	ps := c.newSend(ch, h.Kind, nil, 0, h.MsgID)
	ps.ackDone = true
	n := h.wireBytes()
	ps.wire = c.wireBuf(n)
	h.encode(ps.wire)
	ps.wr = rnic.SendWR{Op: rnic.OpSend, Len: n, Data: ps.wire}
	ps.wrOut = 1
	return ps
}
