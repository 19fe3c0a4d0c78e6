package xrdma

import (
	"testing"
	"testing/quick"
)

func TestTxWindowBasics(t *testing.T) {
	w := newTxWindow(4)
	if !w.canSend() || w.inflight() != 0 {
		t.Fatal("fresh window wrong")
	}
	var acked []uint64
	for i := 0; i < 4; i++ {
		seq := w.next(nil)
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d", seq)
		}
		acked = append(acked, seq)
	}
	if w.canSend() {
		t.Fatal("full window should refuse")
	}
	w.ack(2)
	if w.inflight() != 2 || !w.canSend() {
		t.Fatalf("after ack(2): inflight=%d", w.inflight())
	}
	// Stale ack ignored.
	w.ack(1)
	if w.acked != 2 {
		t.Fatal("ack regressed")
	}
	_ = acked
}

func TestTxWindowOnAckedCallbacks(t *testing.T) {
	w := newTxWindow(8)
	var fired []uint64
	for i := 1; i <= 5; i++ {
		seq := uint64(i)
		w.next(func() { fired = append(fired, seq) })
	}
	w.ack(3)
	if len(fired) != 3 || fired[0] != 1 || fired[2] != 3 {
		t.Fatalf("on_acked order: %v", fired)
	}
	w.ack(5)
	if len(fired) != 5 || fired[4] != 5 {
		t.Fatalf("on_acked completion: %v", fired)
	}
}

func TestTxWindowOverflowPanics(t *testing.T) {
	w := newTxWindow(1)
	w.next(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow must panic")
		}
	}()
	w.next(nil)
}

func TestTxWindowAckBeyondSeqPanics(t *testing.T) {
	w := newTxWindow(4)
	w.next(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("ack beyond seq must panic")
		}
	}()
	w.ack(2)
}

func TestRxWindowContiguousAck(t *testing.T) {
	w := newRxWindow(4)
	w.receive(1, true)
	if w.ackValue() != 1 {
		t.Fatalf("rta = %d", w.ackValue())
	}
	// 2 pending (rendezvous), 3 done: rta must stall at 1.
	w.receive(2, false)
	w.receive(3, true)
	if w.ackValue() != 1 {
		t.Fatalf("rta advanced past a hole: %d", w.ackValue())
	}
	w.markRecved(2)
	if w.ackValue() != 3 {
		t.Fatalf("rta = %d, want 3", w.ackValue())
	}
	// Stale markRecved tolerated.
	w.markRecved(1)
	if w.ackValue() != 3 {
		t.Fatal("stale mark moved rta")
	}
}

func TestRxWindowOutOfOrderPanics(t *testing.T) {
	w := newRxWindow(4)
	w.receive(1, true)
	defer func() {
		if recover() == nil {
			t.Fatal("gap must panic")
		}
	}()
	w.receive(3, true)
}

func TestRxWindowOverrunPanics(t *testing.T) {
	w := newRxWindow(2)
	w.receive(1, false)
	w.receive(2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("window overrun must panic")
		}
	}()
	w.receive(3, false)
}

// Property: for any interleaving of receives (some deferred) and
// completions, RTA equals the longest contiguous completed prefix and
// never regresses.
func TestWindowAlgebraProperty(t *testing.T) {
	prop := func(deferred []bool, order []uint8) bool {
		depth := 64
		w := newRxWindow(depth)
		if len(deferred) > depth {
			deferred = deferred[:depth]
		}
		pending := []uint64{}
		for i, d := range deferred {
			seq := uint64(i + 1)
			w.receive(seq, !d)
			if d {
				pending = append(pending, seq)
			}
		}
		// Complete pending in an arbitrary order.
		prevRTA := w.ackValue()
		for _, o := range order {
			if len(pending) == 0 {
				break
			}
			idx := int(o) % len(pending)
			seq := pending[idx]
			pending = append(pending[:idx], pending[idx+1:]...)
			w.markRecved(seq)
			if w.ackValue() < prevRTA {
				return false // regression
			}
			prevRTA = w.ackValue()
		}
		if len(pending) == 0 && w.ackValue() != w.wta {
			return false // everything done → rta == wta
		}
		// RTA must sit exactly before the first still-pending seq.
		minPending := uint64(1 << 62)
		for _, p := range pending {
			if p < minPending {
				minPending = p
			}
		}
		if len(pending) > 0 && w.ackValue() >= minPending {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: sender and receiver windows agree — a sender driven by the
// receiver's ackValue never overflows and eventually drains.
func TestWindowPairProperty(t *testing.T) {
	prop := func(msgCount uint8, deferMask uint64) bool {
		depth := 8
		tx := newTxWindow(depth)
		rx := newRxWindow(depth)
		n := int(msgCount%64) + 1
		sent := 0
		pendingPulls := []uint64{}
		for sent < n {
			for sent < n && tx.canSend() {
				seq := tx.next(nil)
				sent++
				deferred := deferMask&(1<<(seq%64)) != 0
				rx.receive(seq, !deferred)
				if deferred {
					pendingPulls = append(pendingPulls, seq)
				}
			}
			if !tx.canSend() && len(pendingPulls) > 0 {
				// Complete the oldest pull, then ack.
				rx.markRecved(pendingPulls[0])
				pendingPulls = pendingPulls[1:]
			}
			tx.ack(rx.ackValue())
			if tx.inflight() > uint64(depth) {
				return false
			}
			if !tx.canSend() && len(pendingPulls) == 0 && rx.ackValue() == rx.wta && tx.inflight() > 0 {
				return false // stuck with nothing pending
			}
		}
		for len(pendingPulls) > 0 {
			rx.markRecved(pendingPulls[0])
			pendingPulls = pendingPulls[1:]
		}
		tx.ack(rx.ackValue())
		return tx.inflight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSendRingOrder: the send queue ring keeps FIFO order across
// wrap-around growth, and pushFront (the recovery replay) lands ahead of
// what was already queued.
func TestSendRingOrder(t *testing.T) {
	var r sendRing
	recs := make([]*pendingSend, 40)
	for i := range recs {
		recs[i] = &pendingSend{msgID: uint64(i)}
	}
	var want []uint64
	next := 0
	// Interleave pushes and pops so the head walks around the ring while
	// it grows.
	for round := 0; round < 6; round++ {
		for k := 0; k < round+2 && next < 30; k++ {
			r.push(recs[next])
			want = append(want, uint64(next))
			next++
		}
		if got := r.pop().msgID; got != want[0] {
			t.Fatalf("round %d: popped %d, want %d", round, got, want[0])
		}
		want = want[1:]
	}
	// Replay: push 39, 38, ... 30 to the front, newest first.
	for i := 39; i >= 30; i-- {
		r.pushFront(recs[i])
	}
	replay := []uint64{30, 31, 32, 33, 34, 35, 36, 37, 38, 39}
	want = append(replay, want...)
	if r.len() != len(want) {
		t.Fatalf("len %d, want %d", r.len(), len(want))
	}
	for i, id := range want {
		if got := r.at(i).msgID; got != id {
			t.Fatalf("at(%d) = %d, want %d", i, got, id)
		}
	}
	for _, id := range want {
		if got := r.pop().msgID; got != id {
			t.Fatalf("popped %d, want %d", got, id)
		}
	}
	if r.len() != 0 {
		t.Fatalf("ring not empty: %d left", r.len())
	}
}
