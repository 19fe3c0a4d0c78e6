package xrdma

import (
	"xrdma/internal/rnic"
)

// Poison patterns for released pool objects (pool_poison.go). The helpers
// are only reached when poisonPools is true.

const (
	poisonByte = 0xa5
	poisonID   = 0xdeadbeefdeadbeef
	poisonKind = msgKind(0xee)
)

var poisonData = []byte("released")

func poisonBuf(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

func checkPoisonBuf(b []byte) {
	for _, v := range b[:cap(b)] {
		if v != poisonByte {
			panic("xrdma: pooled wire buffer written after release")
		}
	}
}

func poisonSend(ps *pendingSend) {
	ps.kind, ps.msgID, ps.seq, ps.size = poisonKind, poisonID, poisonID, -1
	ps.data = poisonData
	ps.wr.ID, ps.wr.Len = poisonID, -1
}

func checkPoisonSend(ps *pendingSend) {
	if ps.kind != poisonKind || ps.msgID != poisonID || ps.seq != poisonID || ps.size != -1 ||
		ps.ch != nil || ps.ackDone || ps.wrOut != 0 || ps.wr.ID != poisonID || ps.wr.Len != -1 {
		panic("xrdma: pooled send record touched after release")
	}
}

func poisonReq(rs *reqState) {
	rs.sentAt, rs.size, rs.retries = -1, -1, -1
}

func checkPoisonReq(rs *reqState) {
	if rs.sentAt != -1 || rs.size != -1 || rs.retries != -1 || rs.cb != nil || rs.blame != nil {
		panic("xrdma: pooled response waiter touched after release")
	}
}

func poisonThunk(t *cqeThunk) {
	t.c = nil
	t.cqe = rnic.CQE{WRID: poisonID, QPN: ^uint32(0), Status: rnic.Status(0xee), Len: -1}
}

func checkPoisonThunk(t *cqeThunk) {
	if t.c != nil || t.cqe.WRID != poisonID || t.cqe.Len != -1 {
		panic("xrdma: pooled CQE slot touched after release")
	}
}
