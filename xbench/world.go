package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

const (
	port      = 7000
	replySize = 64
	idBytes   = 8
	// slice is the simulated span of one Engine.RunUntil call; the traced
	// run times each slice and samples counters at its boundaries.
	slice = sim.Millisecond
	// drainMax is the fixed simulated drain after the measured phase: a
	// request still unanswered at its end counts as failed.
	drainMax = 20 * sim.Millisecond
	// establishMax bounds set-up in simulated time; a world whose channels
	// are not all up (first Ping returned) by then fails the run.
	establishMax = 2 * sim.Second
	// replyRing is how many reply buffers a server channel cycles through.
	// Msg.Reply keeps the buffer until the reply is transmitted, so the
	// ring must outlast every reply a channel can have queued; the id
	// check catches it if it does not.
	replyRing = 64
)

// spec is one benchmark workload: the world it builds and the load it
// offers. All randomness comes from the seed.
type spec struct {
	name    string
	why     string
	horizon sim.Duration // simulated length of the measured phase
	build   func(seed uint64) *cluster.Cluster
	// channels opens the client channels once the world exists; classic
	// planes dial (ConnectPairs), the mux plane makes lazy descriptors.
	channels func(c *cluster.Cluster, done func([]*xrdma.Channel)) error
	reqSize  int
	// sizeSpread, when set, draws each request size uniformly from
	// reqSize ± sizeSpread instead of using reqSize exactly.
	sizeSpread int
	depth      int          // closed loop: requests outstanding per channel
	mean       sim.Duration // open loop: mean Poisson inter-arrival
	// stagger is the window over which closed-loop channels start their
	// slots, each at a seeded random offset.
	stagger sim.Duration
	// think, when set, is the mean of a seeded exponential pause between a
	// reply and the slot's next request. Without it a saturated symmetric
	// closed loop settles into a fixed cycle where every request sees the
	// same latency whatever the seed.
	think sim.Duration
}

var specs = []*spec{
	{
		name:    "rpc-small",
		why:     "8-host full mesh, 56 channels, closed loop depth 16 of 256 B requests: per-message xrdma and rnic cost dominates",
		horizon: 10 * sim.Millisecond,
		build: func(seed uint64) *cluster.Cluster {
			return cluster.New(cluster.Options{Topology: fabric.ClusterClos(8), Nodes: 8, Seed: seed})
		},
		channels: func(c *cluster.Cluster, done func([]*xrdma.Channel)) error {
			c.ConnectPairs(orderedMesh(8), port, done)
			return nil
		},
		reqSize: 256,
		depth:   16,
		stagger: 20 * sim.Microsecond,
		think:   1 * sim.Microsecond,
	},
	{
		name:    "mux-fanout",
		why:     "mux plane, 64-host clos, 512 lazy channels with Poisson arrivals (5 ms mean): timers, polls and shared-QP demux dominate",
		horizon: 200 * sim.Millisecond,
		build: func(seed uint64) *cluster.Cluster {
			return cluster.New(cluster.Options{
				Topology: fabric.ClusterClos(64), Seed: seed,
				Config: func(_ int, cfg *xrdma.Config) {
					cfg.QPsPerPeer = 2
					cfg.AttachAdmission = 16
					// The default 4096-deep SRQ pins ~32 MB of receive
					// buffers per active context (800 MB over this
					// world); 256 covers 32 mostly idle channels per
					// server many times over.
					cfg.SRQSize = 256
				},
			})
		},
		channels: func(c *cluster.Cluster, done func([]*xrdma.Channel)) error {
			var chans []*xrdma.Channel
			for cl := 0; cl < 8; cl++ {
				for s := 0; s < 16; s++ {
					// Servers spread over ToRs 1-3, clients sit on ToR 0.
					srv := c.Nodes[16+3*s].ID
					for k := 0; k < 4; k++ {
						ch, err := c.Nodes[cl].Ctx.ChannelTo(srv, port)
						if err != nil {
							return fmt.Errorf("ChannelTo node %d: %w", srv, err)
						}
						chans = append(chans, ch)
					}
				}
			}
			done(chans)
			return nil
		},
		// Idle channels see no queueing, so with one fixed size every
		// request would take exactly the same simulated time; sizes vary
		// around 512 B so the latency distribution depends on the seed.
		reqSize:    512,
		sizeSpread: 256,
		mean:       5 * sim.Millisecond,
	},
	{
		name:    "incast-large",
		why:     "16-to-1 fan-in of 120-128 KiB messages at depth 2 with flow control: fabric queueing, ECN/PFC and rnic segmentation dominate",
		horizon: 200 * sim.Millisecond,
		build: func(seed uint64) *cluster.Cluster {
			return cluster.New(cluster.Options{
				Topology: fabric.ClusterClos(17), Nodes: 17, Seed: seed,
				Config: func(_ int, cfg *xrdma.Config) {
					cfg.KeepaliveInterval = 0
					cfg.MaxOutstandingWRs = 4
				},
			})
		},
		channels: func(c *cluster.Cluster, done func([]*xrdma.Channel)) error {
			c.ConnectPairs(cluster.FanInPairs(17, 0), port, done)
			return nil
		},
		// Sizes vary over 120-128 KiB so the bytes a saturated receiver
		// link completes within the window, not just latency, depend on
		// the seed; every size stays within two 64 KiB fragments, so the
		// per-message work does not.
		reqSize:    124 << 10,
		sizeSpread: 4 << 10,
		depth:      2,
		stagger:    200 * sim.Microsecond,
		think:      10 * sim.Microsecond,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// orderedMesh returns every ordered pair i→j, i≠j, among n nodes.
func orderedMesh(n int) [][2]int {
	var out [][2]int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// world is one built and established simulation plus its load state.
type world struct {
	sp       *spec
	c        *cluster.Cluster
	eng      *sim.Engine
	clients  []*client
	srvChans []*xrdma.Channel
	tr       *tracer // nil in untraced runs

	running   bool
	windowEnd sim.Time
	nextID    uint64

	issued, answered, failed int64
	outstanding              int64
	inWindow, bytesInWindow  int64
	lat                      []int64 // request→response, simulated ns
	errs                     []string
}

// client is the load generator bound to one client channel.
type client struct {
	w    *world
	ch   *xrdma.Channel
	rng  *sim.RNG
	idle []*slot // open loop: free request slots
	// arrive is the cached method value of the open-loop arrival, so
	// scheduling the next arrival allocates nothing.
	arrive func()
}

// slot is one request buffer and its completion state.
type slot struct {
	cl   *client
	buf  []byte // sized for the largest request
	req  []byte // the request in flight: a prefix of buf
	id   uint64
	due  sim.Time
	busy bool
	// done and issue are cached method values (no per-request closure).
	done  func(*xrdma.Msg, error)
	issue func()
}

// server answers requests on one accepted channel, echoing the id.
type server struct {
	w    *world
	ring []byte // replyRing reply buffers of replySize bytes
	k    int
}

func (w *world) fail(format string, args ...any) {
	if len(w.errs) < 8 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	} else if len(w.errs) == 8 {
		w.errs = append(w.errs, "...")
	}
}

// buildWorld constructs the world through the public constructors and
// establishes every channel: set-up ends when each channel's first Ping
// has returned.
func buildWorld(sp *spec, seed uint64, tr *tracer) (*world, error) {
	w := &world{sp: sp, tr: tr}
	t0 := time.Now()
	w.c = sp.build(seed)
	w.eng = w.c.Eng
	tr.span("cluster.build", t0)

	t1 := time.Now()
	w.c.ListenAll(port, func(_ *cluster.Node, ch *xrdma.Channel) {
		sv := &server{w: w, ring: make([]byte, replyRing*replySize)}
		ch.OnMessage(sv.onRequest)
		w.srvChans = append(w.srvChans, ch)
	})
	var chans []*xrdma.Channel
	if err := sp.channels(w.c, func(chs []*xrdma.Channel) { chans = chs }); err != nil {
		return nil, err
	}
	deadline := w.eng.Now().Add(establishMax)
	for chans == nil && w.eng.Now() < deadline {
		w.eng.RunUntil(w.eng.Now().Add(slice))
	}
	if chans == nil {
		return nil, fmt.Errorf("channels not connected after %v simulated", establishMax)
	}
	pending := len(chans)
	var pingErr error
	for _, ch := range chans {
		ch.Ping(func(_, _ sim.Duration, err error) {
			pending--
			if err != nil && pingErr == nil {
				pingErr = err
			}
		})
	}
	for pending > 0 && w.eng.Now() < deadline {
		w.eng.RunUntil(w.eng.Now().Add(slice))
	}
	if pingErr != nil {
		return nil, fmt.Errorf("establish: first ping: %w", pingErr)
	}
	if pending > 0 {
		return nil, fmt.Errorf("establish: %d of %d channels unanswered after %v simulated", pending, len(chans), establishMax)
	}
	tr.span("xrdma.establish", t1)

	rng := sim.NewRNG(seed ^ 0x5eed_b0a7)
	for _, ch := range chans {
		cl := &client{w: w, ch: ch, rng: rng.Split()}
		cl.arrive = cl.onArrive
		w.clients = append(w.clients, cl)
	}
	return w, nil
}

func (cl *client) newSlot() *slot {
	s := &slot{cl: cl, buf: make([]byte, cl.w.sp.reqSize+cl.w.sp.sizeSpread)}
	s.done = s.onReply
	s.issue = s.send
	return s
}

// start begins the measured phase: closed-loop slots start at seeded
// offsets within the stagger window, open-loop channels draw their first
// arrival.
func (w *world) start() {
	w.running = true
	now := w.eng.Now()
	w.windowEnd = now.Add(w.sp.horizon)
	for _, cl := range w.clients {
		if w.sp.mean > 0 {
			w.eng.After(cl.rng.Exp(w.sp.mean), cl.arrive)
			continue
		}
		for i := 0; i < w.sp.depth; i++ {
			s := cl.newSlot()
			w.eng.After(sim.Duration(cl.rng.Int63n(int64(w.sp.stagger))), s.issue)
		}
	}
}

func (cl *client) onArrive() {
	w := cl.w
	if !w.running {
		return
	}
	var s *slot
	if n := len(cl.idle); n > 0 {
		s = cl.idle[n-1]
		cl.idle = cl.idle[:n-1]
	} else {
		s = cl.newSlot()
	}
	s.send()
	w.eng.After(cl.rng.Exp(w.sp.mean), cl.arrive)
}

// send issues the slot's next request, stamped with a fresh id.
func (s *slot) send() {
	w := s.cl.w
	if !w.running {
		return
	}
	w.nextID++
	s.id = w.nextID
	n := w.sp.reqSize
	if sp := w.sp.sizeSpread; sp > 0 {
		n += s.cl.rng.Intn(2*sp+1) - sp
	}
	s.req = s.buf[:n]
	binary.LittleEndian.PutUint64(s.req, s.id)
	s.busy = true
	s.due = w.eng.Now()
	w.issued++
	w.outstanding++
	var err error
	if w.tr != nil {
		t := time.Now()
		err = s.cl.ch.SendMsg(s.req, 0, s.done)
		w.tr.sendNs += time.Since(t).Nanoseconds()
		w.tr.sendN++
	} else {
		err = s.cl.ch.SendMsg(s.req, 0, s.done)
	}
	if err != nil {
		s.busy = false
		w.outstanding--
		w.failed++
		w.fail("SendMsg id %d: %v", s.id, err)
	}
}

func (s *slot) onReply(m *xrdma.Msg, err error) {
	w := s.cl.w
	if !s.busy {
		w.fail("duplicate reply for id %d", s.id)
		return
	}
	s.busy = false
	w.outstanding--
	now := w.eng.Now()
	switch {
	case err != nil:
		w.failed++
		w.fail("request id %d: %v", s.id, err)
	case m == nil || len(m.Data) < idBytes:
		w.failed++
		w.fail("reply for id %d carries no id", s.id)
	case binary.LittleEndian.Uint64(m.Data) != s.id:
		w.failed++
		w.fail("reply id %d, want %d", binary.LittleEndian.Uint64(m.Data), s.id)
	default:
		w.answered++
		w.lat = append(w.lat, int64(now.Sub(s.due)))
		if now <= w.windowEnd {
			w.inWindow++
			w.bytesInWindow += int64(len(s.req) + replySize)
		}
	}
	switch {
	case w.sp.mean > 0:
		s.cl.idle = append(s.cl.idle, s)
	case w.sp.think > 0:
		w.eng.After(s.cl.rng.Exp(w.sp.think), s.issue)
	default:
		s.send()
	}
}

func (sv *server) onRequest(m *xrdma.Msg) {
	w := sv.w
	if len(m.Data) < idBytes {
		w.fail("request %d arrived without its id", m.MsgID)
		return
	}
	rb := sv.ring[sv.k*replySize : (sv.k+1)*replySize]
	sv.k = (sv.k + 1) % replyRing
	copy(rb, m.Data[:idBytes])
	var err error
	if w.tr != nil {
		t := time.Now()
		err = m.Reply(rb, 0)
		w.tr.replyNs += time.Since(t).Nanoseconds()
		w.tr.replyN++
	} else {
		err = m.Reply(rb, 0)
	}
	if err != nil {
		w.fail("Reply to request %d: %v", m.MsgID, err)
	}
}

// runPhase runs the measured phase and the drain in 1 ms RunUntil slices.
// The drain stops early, at a slice boundary, once nothing is outstanding.
func (w *world) runPhase() {
	w.start()
	t := w.eng.Now()
	end := w.windowEnd
	for t < end {
		t = t.Add(slice)
		w.runSlice(t)
	}
	w.running = false
	drainEnd := end.Add(drainMax)
	for w.outstanding > 0 && t < drainEnd {
		t = t.Add(slice)
		w.runSlice(t)
	}
	if w.outstanding > 0 {
		w.failed += w.outstanding
		w.fail("%d requests unanswered after %v drain", w.outstanding, drainMax)
	}
}

func (w *world) runSlice(t sim.Time) {
	if w.tr == nil {
		w.eng.RunUntil(t)
		return
	}
	t0 := time.Now()
	w.eng.RunUntil(t)
	w.tr.slice(w, t0)
}
