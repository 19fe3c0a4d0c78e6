package xrdma

import (
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
)

// flowCtl implements §V-C: the context limits outstanding RDMA work
// requests to N, queueing the excess, and splits large one-sided
// operations into moderate fixed-size fragments so a single huge WR cannot
// monopolise the RNIC pipeline. Both mechanisms are pure software on top
// of the verbs API — "without specific hardware or software constraints".
type flowCtl struct {
	ctx         *Context
	limit       int
	outstanding int
	queue       []flowItem

	// Counters.
	Queued    int64 // WRs that had to wait for a slot
	Fragments int64 // fragments produced by splitting
	Posted    int64
	PeakQueue int
}

type flowItem struct {
	qp *rnic.QP
	wr *rnic.SendWR
	e  wrEntry
}

// wrKind says how a send completion is handled (Context.completeWR).
type wrKind uint8

const (
	wrCallback  wrKind = iota // cb (nil: no completion wanted): one-sided writes
	wrSend                    // a frame of channel ps.ch (data or control)
	wrMuxCtrl                 // a mux-plane control frame of mx
	wrFetch                   // one READ fragment of fetch fo
	wrKeepalive               // a keepalive probe of binding b
)

// wrEntry is the context's record of a posted WR, keyed by WR id: a value
// naming what to do on completion, so the hot frame kinds need no
// closure per WR.
type wrEntry struct {
	kind    wrKind
	counted bool // holds a flowCtl outstanding slot (RDMA READ)
	ps      *pendingSend
	mx      *muxQP
	b       *qpBinding
	fo      *fetchOp
	sched   *sqSched // DRR scheduler the WR went through (tenanted mux)
	gen     uint64   // sched generation at post
	cb      func(rnic.CQE)
}

// completeWR runs a WR's completion: the DRR scheduler's bookkeeping
// around the handler the entry names.
func (c *Context) completeWR(e wrEntry, cqe rnic.CQE) {
	s := e.sched
	if s != nil && s.gen == e.gen {
		s.pending--
	}
	switch e.kind {
	case wrSend:
		e.ps.ch.sendCompletion(e.ps, cqe)
	case wrMuxCtrl:
		e.mx.ctrlCompletion(e.ps, cqe)
	case wrFetch:
		c.fragmentDone(e.fo, cqe.Status)
	case wrKeepalive:
		e.b.probeDone(cqe)
	default:
		if e.cb != nil {
			e.cb(cqe)
		}
	}
	if s != nil && s.gen == e.gen {
		s.drain()
	}
}

func newFlowCtl(ctx *Context, limit int) *flowCtl {
	return &flowCtl{ctx: ctx, limit: limit}
}

// post submits a WR under the outstanding limit; e names its completion
// handler. The limit governs the bulk one-sided data plane (the fragmented READs of
// the rendezvous path): §V-C's congestion problem is "large size requests
// block the RNIC". Inline SENDs are already bounded by the per-channel
// seq-ack window, so they bypass the queue — throttling them would only
// add latency to the traffic flow control exists to protect.
func (f *flowCtl) post(qp *rnic.QP, wr *rnic.SendWR, e wrEntry) {
	if wr.Op == rnic.OpRead && f.outstanding >= f.limit {
		f.Queued++
		f.queue = append(f.queue, flowItem{qp: qp, wr: wr, e: e})
		if len(f.queue) > f.PeakQueue {
			f.PeakQueue = len(f.queue)
		}
		return
	}
	f.doPost(qp, wr, e)
}

// postDirect bypasses the limiter — keepalive probes and acks are tiny
// and must not sit behind queued bulk data.
func (f *flowCtl) postDirect(qp *rnic.QP, wr *rnic.SendWR, e wrEntry) {
	c := f.ctx
	wr.ID = c.nextWRID()
	silent := e.kind == wrCallback && e.cb == nil
	if !silent {
		c.wrs[wr.ID] = e
	}
	if err := qp.PostSend(wr); err != nil {
		delete(c.wrs, wr.ID)
		if !silent {
			c.completeWR(e, rnic.CQE{WRID: wr.ID, QPN: qp.QPN, Op: wr.Op, Status: rnic.StatusFlushed})
		}
	}
}

func (f *flowCtl) doPost(qp *rnic.QP, wr *rnic.SendWR, e wrEntry) {
	c := f.ctx
	wr.ID = c.nextWRID()
	e.counted = wr.Op == rnic.OpRead
	if e.counted {
		f.outstanding++
	}
	f.Posted++
	c.wrs[wr.ID] = e
	if err := qp.PostSend(wr); err != nil {
		// QP unusable (broken mid-flight): complete as flushed.
		delete(c.wrs, wr.ID)
		if e.counted {
			f.outstanding--
		}
		c.completeWR(e, rnic.CQE{WRID: wr.ID, QPN: qp.QPN, Op: wr.Op, Status: rnic.StatusFlushed})
		f.pump()
	}
}

func (f *flowCtl) pump() {
	for f.outstanding < f.limit && len(f.queue) > 0 {
		it := f.queue[0]
		f.queue = f.queue[1:]
		f.doPost(it.qp, it.wr, it.e)
	}
}

// ---------------------------------------------------------------------------
// Tenant admission: token-bucket rate limiting + send-window partition.
//
// admit runs in pump() immediately before transmit, so a true return is
// always followed by exactly one frame: tokens are charged here, the
// window slot in transmit. A false return parks the channel on the
// tenant's FIFO waiter list; acks, refills and rewinds wake it. A
// zero-tenant context never reaches any of this.

func (t *Tenant) admit(ch *Channel, cost int) bool {
	if t.cfg.SendWindow > 0 && t.inflight >= t.cfg.SendWindow {
		t.WinStalls++
		t.wait(ch)
		return false
	}
	if t.cfg.RateBps > 0 {
		t.refill()
		if t.tokens < float64(cost) {
			t.RateStalls++
			t.wait(ch)
			t.armRefill(cost)
			return false
		}
		t.tokens -= float64(cost)
	}
	return true
}

// refill credits tokens for the time elapsed since the last refill,
// capped at the bucket depth.
func (t *Tenant) refill() {
	now := t.ctx.eng.Now()
	if dt := now.Sub(t.lastRefill); dt > 0 {
		t.tokens += float64(t.cfg.RateBps) * float64(dt) / float64(sim.Second)
		if depth := float64(t.cfg.BurstBytes); t.tokens > depth {
			t.tokens = depth
		}
	}
	t.lastRefill = now
}

// armRefill schedules one wake at the instant the bucket covers cost.
// Only one refill event exists per tenant, so a thundering herd of
// stalled channels costs a single timer.
func (t *Tenant) armRefill(cost int) {
	if t.refillArmed {
		return
	}
	deficit := float64(cost) - t.tokens
	if deficit <= 0 {
		deficit = 1
	}
	d := sim.Duration(deficit*float64(sim.Second)/float64(t.cfg.RateBps)) + 1
	t.refillArmed = true
	t.ctx.eng.AfterBg(d, func() {
		t.refillArmed = false
		t.wakeWaiters()
	})
}

func (t *Tenant) wait(ch *Channel) {
	if ch.tenantWaiting {
		return
	}
	ch.tenantWaiting = true
	t.waiters = append(t.waiters, ch)
}

// wakeWaiters re-pumps every parked channel in FIFO order. The slice is
// swapped out first: a still-blocked channel re-registers, which must
// not grow the list being walked.
func (t *Tenant) wakeWaiters() {
	if len(t.waiters) == 0 {
		return
	}
	ws := t.waiters
	t.waiters = nil
	for _, ch := range ws {
		ch.tenantWaiting = false
		if !ch.closed {
			ch.pump()
		}
	}
}

// noteSend charges one window-partition slot at transmit time.
func (t *Tenant) noteSend(ch *Channel) {
	t.inflight++
	ch.tenantInflight++
}

// noteAcked releases the slot when the frame's ack lands.
func (t *Tenant) noteAcked(ch *Channel) {
	t.inflight--
	ch.tenantInflight--
	t.wakeWaiters()
}

// tenantRewind reconciles the partition when a channel's tx window is
// rewound (teardown, QP adoption replay): the channel's contribution is
// in-flight no longer; requeueUnacked re-charges what it re-transmits.
func (ch *Channel) tenantRewind() {
	t := ch.tenant
	if t == nil || ch.tenantInflight == 0 {
		return
	}
	t.inflight -= ch.tenantInflight
	ch.tenantInflight = 0
	t.wakeWaiters()
}

// fetchRemote pulls size bytes from a peer's staged buffer into local
// registered memory using fragmented RDMA READs — the "read replace
// write" data path (§IV-C) with §V-C fragmentation. done fires once every
// fragment has landed; a failed fragment reports its status.
func (f *flowCtl) fetchRemote(qp *rnic.QP, raddr uint64, rkey uint32, local Buffer, size int, done func(rnic.Status)) {
	frag := f.ctx.cfg.FragmentSize
	if frag <= 0 || frag > size {
		frag = size
	}
	n := (size + frag - 1) / frag
	if n == 0 {
		n = 1
	}
	if n > 1 {
		f.Fragments += int64(n)
	}
	fo := f.ctx.newFetch(n, done)
	for i, off := 0, 0; off < size || (size == 0 && off == 0); i, off = i+1, off+frag {
		seg := size - off
		if seg > frag {
			seg = frag
		}
		wr := &fo.wrs[i]
		*wr = rnic.SendWR{
			Op:    rnic.OpRead,
			Len:   seg,
			Local: local.Addr + uint64(off),
			RAddr: raddr + uint64(off),
			RKey:  rkey,
		}
		// A post that fails synchronously completes (and may release fo)
		// before returning; nothing below touches fo.
		f.post(qp, wr, wrEntry{kind: wrFetch, fo: fo})
		if size == 0 {
			break
		}
	}
}

// fetchOp is one fragmented pull in flight: its fragment WRs, the
// countdown and the first failure. Pooled on the Context; it goes back
// once every fragment completed and the NIC holds none of its WRs.
type fetchOp struct {
	wrs       []rnic.SendWR
	remaining int
	failed    rnic.Status
	done      func(rnic.Status)
}

func (c *Context) newFetch(n int, done func(rnic.Status)) *fetchOp {
	fo := c.pools.fetches.get()
	if fo == nil {
		fo = &fetchOp{}
	}
	if cap(fo.wrs) < n {
		fo.wrs = make([]rnic.SendWR, n)
	}
	fo.wrs = fo.wrs[:n]
	fo.remaining, fo.failed, fo.done = n, rnic.StatusOK, done
	return fo
}

// fragmentDone counts one fragment's completion; the last one recycles fo
// and reports the pull.
func (c *Context) fragmentDone(fo *fetchOp, st rnic.Status) {
	if st != rnic.StatusOK && fo.failed == rnic.StatusOK {
		fo.failed = st
	}
	fo.remaining--
	if fo.remaining > 0 {
		return
	}
	done, failed := fo.done, fo.failed
	fo.done = nil
	idle := true
	for i := range fo.wrs {
		idle = idle && fo.wrs[i].Idle()
	}
	if idle {
		clear(fo.wrs)
		c.pools.fetches.put(fo)
	}
	done(failed)
}
