package xrdma

import (
	"strings"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/sim"
)

// TestKeepaliveStaleProbeAfterAdopt: a keepalive probe posted on the old QP
// and flushed after the channel adopted a replacement must not fail the
// freshly recovered channel — its completion names a QPN the binding no
// longer owns.
func TestKeepaliveStaleProbeAfterAdopt(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	w.connect(t, 0, 1, 5000)
	w.eng.AfterBg(20100*sim.Microsecond, func() { w.nics[0].Crash() })
	w.eng.AfterBg(21100*sim.Microsecond, func() {
		w.nics[0].Restart()
		w.ctxs[0].OnNICRestart()
	})
	w.eng.RunFor(300 * sim.Millisecond)

	peer := w.ctxs[1]
	if peer.Stats.Recoveries == 0 {
		t.Fatal("the peer never recovered — test is vacuous")
	}
	if peer.Stats.KeepaliveFails != 0 {
		t.Errorf("KeepaliveFails=%d on the peer, want 0", peer.Stats.KeepaliveFails)
	}
	for _, e := range peer.Log() {
		if strings.Contains(e.Text, ErrPeerDead.Error()) {
			t.Errorf("t=%v %s", e.At, e.Text)
		}
	}
}

// TestKeepaliveScanDeterministic: the keepalive and deadlock scans walk
// exclusive QPs in QPN order, so many idle channels probed in the same
// tick post their probes in the same order every run.
func TestKeepaliveScanDeterministic(t *testing.T) {
	run := func() uint64 {
		w := newWorld(t, 8, nil)
		var chans []*Channel
		for j := 1; j < 8; j++ {
			w.ctxs[j].OnChannel(echoServer)
			if err := w.ctxs[j].Listen(5000); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 3; k++ {
				w.ctxs[0].Connect(fabric.NodeID(j), 5000, func(ch *Channel, err error) {
					if err != nil {
						t.Fatalf("connect: %v", err)
					}
					chans = append(chans, ch)
				})
			}
		}
		w.eng.Run()
		if len(chans) != 21 {
			t.Fatalf("established %d channels, want 21", len(chans))
		}
		req := make([]byte, 512)
		for round := 0; round < 5; round++ {
			w.eng.RunFor(37 * sim.Millisecond)
			for _, ch := range chans {
				if err := ch.SendMsg(req, 0, func(*Msg, error) {}); err != nil {
					t.Fatal(err)
				}
			}
			w.eng.RunFor(2 * sim.Millisecond)
		}
		if w.ctxs[0].Stats.KeepaliveProbes == 0 {
			t.Fatal("no keepalive probes — test is vacuous")
		}
		return w.eng.Fired()
	}
	want := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("repeat %d fired %d events, first run %d", i, got, want)
		}
	}
}

// TestScanOrderMirrorsChannelTable: the exclusive scan order must hold
// exactly the channel table's entries, in ascending QPN order, through
// recovery adoptions, the mock fallback, failback and teardown.
func TestScanOrderMirrorsChannelTable(t *testing.T) {
	w := newRecoverWorld(t, 3, nil)
	var chans []*Channel
	for _, j := range []int{1, 1, 2} {
		cli, srv := w.connect(t, 0, j, 5000+len(chans))
		echoServer(srv)
		chans = append(chans, cli)
	}
	check := func() {
		for _, c := range w.ctxs {
			if len(c.exclusive) != len(c.channels) {
				t.Fatalf("t=%v node %d: %d bindings in scan order, %d channels filed", w.eng.Now(), c.Node(), len(c.exclusive), len(c.channels))
			}
			for i, b := range c.exclusive {
				if i > 0 && c.exclusive[i-1].key() >= b.key() {
					t.Fatalf("t=%v node %d: scan order not ascending at %d", w.eng.Now(), c.Node(), i)
				}
				if ch := c.channels[b.key()]; ch == nil || ch.b != b {
					t.Fatalf("t=%v node %d: binding filed under qpn %d is not that channel's", w.eng.Now(), c.Node(), b.key())
				}
			}
		}
	}
	var tick func()
	tick = func() {
		check()
		w.eng.AfterBg(5*sim.Millisecond, tick)
	}
	tick()
	w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
	w.eng.AfterBg(250*sim.Millisecond, func() {
		w.nics[1].Restart()
		w.ctxs[1].OnNICRestart()
	})
	w.eng.AfterBg(400*sim.Millisecond, func() { w.fab.SetHostLink(2, false) })
	w.eng.AfterBg(430*sim.Millisecond, func() { w.fab.SetHostLink(2, true) })
	w.eng.AfterBg(700*sim.Millisecond, func() { chans[0].Close() })
	w.eng.RunFor(800 * sim.Millisecond)
	check()

	ctx := w.ctxs[0]
	s := ctx.Stats
	if s.MockSwitches == 0 || s.Failbacks == 0 || s.Recoveries <= s.Failbacks || s.ChannelsClosed == 0 {
		t.Fatalf("mock switches=%d failbacks=%d recoveries=%d closed=%d: the walk missed a path",
			s.MockSwitches, s.Failbacks, s.Recoveries, s.ChannelsClosed)
	}
}
