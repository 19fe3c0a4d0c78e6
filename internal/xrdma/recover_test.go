package xrdma

import (
	"encoding/binary"
	"testing"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/sim"
	"xrdma/internal/tcpnet"
	"xrdma/internal/verbs"
)

// recoverWorld is a testWorld with the health state machine armed: a
// recovery listener on every node, compressed failure-detection clocks,
// and a short RC retry horizon so degrade→recover cycles fit millisecond
// tests.
func newRecoverWorld(t testing.TB, n int, mutate func(i int, cfg *Config)) *testWorld {
	t.Helper()
	eng := sim.NewEngine()
	fab := fabric.New(eng, fabric.DefaultConfig(), 1)
	top := fabric.SmallClos()
	if n > top.Hosts() {
		top = fabric.ClusterClos(n)
	}
	fabric.BuildClos(fab, top)
	net := verbs.NewCMNetwork()
	mon := NewMonitor()
	w := &testWorld{eng: eng, fab: fab, mon: mon}
	nicCfg := rnic.DefaultConfig()
	nicCfg.RetransTimeout = 2 * sim.Millisecond
	nicCfg.RetryLimit = 3
	for i := 0; i < n; i++ {
		host := fab.Host(fabric.NodeID(i))
		nic := rnic.New(eng, host, nicCfg)
		w.nics = append(w.nics, nic)
		vc := verbs.Open(nic)
		cm := verbs.NewCM(vc, net, host)
		cfg := DefaultConfig()
		cfg.MockEnabled = true
		cfg.KeepaliveInterval = 2 * sim.Millisecond
		cfg.KeepaliveTimeout = 8 * sim.Millisecond
		cfg.MockDialRetries = 4
		cfg.MockDialBackoff = sim.Millisecond
		cfg.RecoverRetries = 8
		cfg.RecoverBackoff = sim.Millisecond
		cfg.RecoverBackoffMax = 8 * sim.Millisecond
		cfg.RecoverDialTimeout = 5 * sim.Millisecond
		cfg.FailbackInterval = 25 * sim.Millisecond
		if mutate != nil {
			mutate(i, &cfg)
		}
		tcp := tcpnet.New(eng, host, tcpnet.DefaultConfig())
		ctx := NewContext(Options{
			Verbs: vc, CM: cm, Host: host, Config: cfg, Monitor: mon,
			TCP: tcp, MockPort: 9000, RecoverPort: 9100, Seed: uint64(i + 1),
		})
		w.ctxs = append(w.ctxs, ctx)
	}
	return w
}

// idStream drives a steady stream of 16-byte id-stamped requests over ch
// and tallies exact delivery on the server side.
type idStream struct {
	sent     uint64
	sendErrs int
	resps    map[uint64]int
	recvd    map[uint64]int
}

func newIDStream(srv *Channel) *idStream {
	s := &idStream{resps: map[uint64]int{}, recvd: map[uint64]int{}}
	srv.OnMessage(func(m *Msg) {
		id := binary.LittleEndian.Uint64(m.Data)
		s.recvd[id]++
		m.Reply(m.Data[:8], 0)
	})
	return s
}

// run issues one request every interval until stop (relative to now).
func (s *idStream) run(eng *sim.Engine, cli *Channel, interval, stop sim.Duration) {
	start := eng.Now()
	var tick func()
	tick = func() {
		if eng.Now().Sub(start) >= stop {
			return
		}
		id := s.sent
		s.sent++
		buf := make([]byte, 16)
		binary.LittleEndian.PutUint64(buf, id)
		if err := cli.SendMsg(buf, 0, func(m *Msg, err error) {
			if err == nil {
				s.resps[binary.LittleEndian.Uint64(m.Data)]++
			}
		}); err != nil {
			s.sendErrs++
		}
		eng.AfterBg(interval, tick)
	}
	eng.AfterBg(interval, tick)
}

// check asserts exactly-once delivery and full response coverage.
func (s *idStream) check(t *testing.T) {
	t.Helper()
	dups, lost := 0, 0
	for id := uint64(0); id < s.sent; id++ {
		switch n := s.recvd[id]; {
		case n == 0:
			lost++
		case n > 1:
			dups++
		}
	}
	if dups != 0 || lost != 0 {
		t.Errorf("of %d sent: %d duplicated, %d lost", s.sent, dups, lost)
	}
	if len(s.resps) != int(s.sent) {
		t.Errorf("%d responses for %d requests", len(s.resps), s.sent)
	}
	if s.sendErrs != 0 {
		t.Errorf("%d sends rejected", s.sendErrs)
	}
}

// TestTransientFaultRecoversOverRDMA: a pulled-and-replugged server cable
// must end with both ends Healthy on a fresh QP, with zero message loss
// or duplication across the outage.
func TestTransientFaultRecoversOverRDMA(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 150*sim.Millisecond)

	w.eng.AfterBg(20*sim.Millisecond, func() { w.fab.SetHostLink(1, false) })
	w.eng.AfterBg(60*sim.Millisecond, func() { w.fab.SetHostLink(1, true) })
	w.eng.RunFor(400 * sim.Millisecond)

	if cli.Health() != HealthHealthy || cli.Mocked() {
		t.Fatalf("client ended health=%v mocked=%v, want healthy over RDMA", cli.Health(), cli.Mocked())
	}
	if srv.Health() != HealthHealthy || srv.Mocked() {
		t.Fatalf("server ended health=%v mocked=%v", srv.Health(), srv.Mocked())
	}
	if w.ctxs[0].Stats.Degraded == 0 {
		t.Fatal("fault never detected — test is vacuous")
	}
	if w.ctxs[0].Stats.Recoveries == 0 && w.ctxs[0].Stats.Failbacks == 0 {
		t.Fatal("channel never re-established RDMA")
	}
	s.check(t)
}

// TestPermanentNicLossFallsBackToMock: a dead HCA with a living TCP stack
// must land both ends on the Mock fallback and keep serving.
func TestPermanentNicLossFallsBackToMock(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 200*sim.Millisecond)

	w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
	w.eng.RunFor(500 * sim.Millisecond)

	if !cli.Mocked() || !srv.Mocked() {
		t.Fatalf("mocked: cli=%v srv=%v, want both on fallback", cli.Mocked(), srv.Mocked())
	}
	if cli.closed || srv.closed {
		t.Fatal("channel torn down instead of falling back")
	}
	if w.ctxs[0].Stats.MockSwitches == 0 {
		t.Fatal("no mock switch recorded")
	}
	s.check(t)

	// The fallback still carries fresh traffic.
	var echoed bool
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, 1<<40)
	s.recvd[1<<40] = -1 // out-of-stream probe; pre-seed so check() stays clean
	if err := cli.SendMsg(buf, 0, func(m *Msg, err error) { echoed = err == nil }); err != nil {
		t.Fatal(err)
	}
	w.eng.RunFor(20 * sim.Millisecond)
	if !echoed {
		t.Fatal("request over established fallback got no response")
	}
}

// TestFailbackRestoresRDMA: once the crashed HCA reboots, the periodic
// failback probe must pull the channel off the Mock fallback and back
// onto a fresh QP — exactly once per message, across both cutovers.
func TestFailbackRestoresRDMA(t *testing.T) {
	w := newRecoverWorld(t, 2, nil)
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 400*sim.Millisecond)

	w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
	w.eng.AfterBg(250*sim.Millisecond, func() {
		w.nics[1].Restart()
		w.ctxs[1].OnNICRestart()
	})
	w.eng.RunFor(800 * sim.Millisecond)

	if cli.Health() != HealthHealthy || cli.Mocked() {
		t.Fatalf("client ended health=%v mocked=%v, want healthy over RDMA", cli.Health(), cli.Mocked())
	}
	if srv.Health() != HealthHealthy || srv.Mocked() {
		t.Fatalf("server ended health=%v mocked=%v", srv.Health(), srv.Mocked())
	}
	if w.ctxs[0].Stats.MockSwitches == 0 {
		t.Fatal("never fell back to mock — restart came too early for the test's point")
	}
	if w.ctxs[0].Stats.Failbacks == 0 {
		t.Fatal("no failback recorded")
	}
	s.check(t)
}

// TestParkedMockConnExpiryRaceOrders (satellite): an inbound mock conn
// nobody claims must (a) leave the parked list the moment the dialer
// gives up on it, and (b) be force-closed by the grace timer when the
// dialer is patient — in both orders, no conn outlives the grace and the
// parked list ends empty.
func TestParkedMockConnExpiryRaceOrders(t *testing.T) {
	// Order A: conn dies before the grace fires.
	w := newRecoverWorld(t, 2, nil)
	w.connect(t, 0, 1, 5000)
	srvCtx := w.ctxs[1]
	var dialed *tcpnet.Conn
	w.ctxs[0].tcp.Dial(1, 9000, func(conn *tcpnet.Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		dialed = conn
		conn.Send(mockHello(0xdead), 0, nil) // QPN no channel owns → parked
	})
	w.eng.RunFor(2 * sim.Millisecond)
	if len(srvCtx.mockParked) != 1 {
		t.Fatalf("parked list has %d entries, want 1", len(srvCtx.mockParked))
	}
	dialed.Close()
	w.eng.RunFor(2 * sim.Millisecond)
	if len(srvCtx.mockParked) != 0 {
		t.Fatalf("dead conn still parked (%d entries)", len(srvCtx.mockParked))
	}
	// The grace timer must cope with the entry being long gone.
	w.eng.RunFor(2 * srvCtx.mockGrace())

	// Order B: grace fires first and closes the still-open conn.
	w2 := newRecoverWorld(t, 2, nil)
	w2.connect(t, 0, 1, 5000)
	srvCtx2 := w2.ctxs[1]
	var dialed2 *tcpnet.Conn
	w2.ctxs[0].tcp.Dial(1, 9000, func(conn *tcpnet.Conn, err error) {
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		dialed2 = conn
		conn.Send(mockHello(0xbeef), 0, nil)
	})
	w2.eng.RunFor(2 * sim.Millisecond)
	if len(srvCtx2.mockParked) != 1 {
		t.Fatalf("parked list has %d entries, want 1", len(srvCtx2.mockParked))
	}
	w2.eng.RunFor(2 * srvCtx2.mockGrace())
	if len(srvCtx2.mockParked) != 0 {
		t.Fatalf("grace expired but %d conns still parked", len(srvCtx2.mockParked))
	}
	if dialed2.Open() {
		t.Fatal("grace-expired parked conn left open")
	}
}

// TestParkedMockConnBuffersEarlyFrames (satellite): a dialer that
// attaches and replays before this side notices its own failure must not
// lose those frames — the parked conn buffers them and the claim replays
// them into the channel.
func TestParkedMockConnBuffersEarlyFrames(t *testing.T) {
	// Disable recovery dials on the client so a NIC loss goes straight to
	// mock; leave the server's keepalive slow so the client's dial is
	// parked for a long stretch while the server still thinks the channel
	// is fine.
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.RecoverRetries = 1
		if i == 1 {
			cfg.KeepaliveInterval = 40 * sim.Millisecond
			cfg.KeepaliveTimeout = 160 * sim.Millisecond
		}
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	s := newIDStream(srv)
	s.run(w.eng, cli, 500*sim.Microsecond, 100*sim.Millisecond)
	w.eng.AfterBg(20*sim.Millisecond, func() { w.nics[1].Crash() })
	w.eng.RunFor(600 * sim.Millisecond)
	if !cli.Mocked() || !srv.Mocked() {
		t.Fatalf("mocked: cli=%v srv=%v", cli.Mocked(), srv.Mocked())
	}
	s.check(t)
}

// TestKeepaliveDeathMidRendezvousNoLeak (satellite): when the peer dies
// for good in the middle of a large rendezvous transfer — and no
// fallback plane is configured — the teardown must return every window
// credit and memory-cache buffer; nothing may leak.
func TestKeepaliveDeathMidRendezvousNoLeak(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.MockEnabled = false // permanent fault with nowhere to go
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	srv.OnMessage(func(m *Msg) {}) // swallow; the transfer won't finish

	big := make([]byte, 64<<10) // rendezvous-sized
	var sendErr error
	var cbRan bool
	if err := cli.SendMsg(big, 0, func(m *Msg, err error) {
		cbRan = true
		sendErr = err
	}); err != nil {
		t.Fatal(err)
	}
	// Let the announce go out and the peer's pull begin, then kill the
	// server mid-flight.
	w.eng.RunFor(50 * sim.Microsecond)
	w.nics[1].Crash()
	w.ctxs[1].Close()
	w.eng.RunFor(800 * sim.Millisecond)

	if !cli.closed {
		t.Fatalf("client channel still open (health=%v) after permanent peer death", cli.Health())
	}
	if !cbRan || sendErr == nil {
		t.Fatal("pending send never failed back to the caller")
	}
	if got := w.ctxs[0].Mem.InUseBytes; got != 0 {
		t.Errorf("client memory cache leaks %d bytes after teardown", got)
	}
	if got := cli.tx.inflight(); got != 0 {
		t.Errorf("client window still holds %d credits", got)
	}
	if len(cli.sent) != 0 || cli.sendQ.len() != 0 {
		t.Errorf("replay state leaks: %d sent records, %d queued", len(cli.sent), cli.sendQ.len())
	}
	if w.ctxs[0].Stats.ChannelsBroken == 0 {
		t.Error("broken-channel counter never moved")
	}
}

// TestPooledSenderRecoversMidWindow: send records, their WRs and their
// frame buffers are pooled, so a recovery that replays the unacked tail
// while CQEs and go-back-N retransmissions for the old transmissions are
// still outstanding must not hand a record or buffer to a new message
// early. A lossy link keeps retransmissions in flight, the cable pull
// fails the QP with a full window, and every payload byte is checked on
// arrival: a recycled buffer overwritten under an in-flight frame would
// surface as a corrupt or lost message.
func TestPooledSenderRecoversMidWindow(t *testing.T) {
	w := newRecoverWorld(t, 2, func(i int, cfg *Config) {
		cfg.WindowDepth = 4
	})
	cli, srv := w.connect(t, 0, 1, 5000)
	const size = 200
	fill := func(id uint64, i int) byte { return byte(id*31 + uint64(i)) }
	recvd := map[uint64]int{}
	corrupt := 0
	srv.OnMessage(func(m *Msg) {
		id := binary.LittleEndian.Uint64(m.Data)
		for i := 8; i < size; i++ {
			if m.Data[i] != fill(id, i) {
				corrupt++
				break
			}
		}
		recvd[id]++
		m.Reply(m.Data[:8], 0)
	})
	var sent uint64
	resps := map[uint64]int{}
	var tick func()
	tick = func() {
		if w.eng.Now() >= sim.Time(150*sim.Millisecond) {
			return
		}
		id := sent
		sent++
		buf := make([]byte, size)
		binary.LittleEndian.PutUint64(buf, id)
		for i := 8; i < size; i++ {
			buf[i] = fill(id, i)
		}
		if err := cli.SendMsg(buf, 0, func(m *Msg, err error) {
			if err == nil {
				resps[binary.LittleEndian.Uint64(m.Data)]++
			}
		}); err != nil {
			t.Fatalf("send %d: %v", id, err)
		}
		w.eng.AfterBg(50*sim.Microsecond, tick)
	}
	w.eng.AfterBg(50*sim.Microsecond, tick)
	w.eng.AfterBg(10*sim.Millisecond, func() { w.fab.SetHostLinkImpairment(1, 0.02, 0, 0) })
	w.eng.AfterBg(40*sim.Millisecond, func() { w.fab.SetHostLink(1, false) })
	w.eng.AfterBg(60*sim.Millisecond, func() { w.fab.SetHostLink(1, true) })
	w.eng.AfterBg(100*sim.Millisecond, func() { w.fab.SetHostLinkImpairment(1, 0, 0, 0) })
	w.eng.RunFor(500 * sim.Millisecond)

	c := w.ctxs[0]
	if c.Stats.Degraded == 0 || c.Stats.Recoveries == 0 {
		t.Fatalf("degraded=%d recoveries=%d: the QP never recovered mid-window", c.Stats.Degraded, c.Stats.Recoveries)
	}
	if w.nics[0].Counters.Retransmits == 0 {
		t.Fatal("no go-back-N retransmission: the lossy phase is vacuous")
	}
	if cli.Health() != HealthHealthy || cli.Mocked() {
		t.Fatalf("client ended health=%v mocked=%v, want healthy over RDMA", cli.Health(), cli.Mocked())
	}
	lost, dups := 0, 0
	for id := uint64(0); id < sent; id++ {
		switch n := recvd[id]; {
		case n == 0:
			lost++
		case n > 1:
			dups++
		}
	}
	if lost != 0 || dups != 0 || corrupt != 0 {
		t.Errorf("of %d sent: %d lost, %d duplicated, %d corrupt", sent, lost, dups, corrupt)
	}
	if len(resps) != int(sent) {
		t.Errorf("%d responses for %d requests", len(resps), sent)
	}
	if len(c.pools.sends.items) == 0 || len(c.pools.wire[wireClass(hdrSize+size)]) == 0 {
		t.Error("no send record or frame buffer came back to the pool: the sender never pooled")
	}
}
