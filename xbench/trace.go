package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"xrdma/internal/fabric"
	"xrdma/internal/rnic"
	"xrdma/internal/xrdma"
)

// span is one timed interval recorded by the driver around a call into a
// layer. Times are host nanoseconds from the tracer's origin. The
// SendMsg and Reply calls made inside a RunUntil slice are its child
// spans; they are kept folded into a count and a total per slice.
type span struct {
	Name      string `json:"name"`
	Parent    string `json:"parent,omitempty"`
	StartNs   int64  `json:"start_ns"`
	DurNs     int64  `json:"dur_ns"`
	SendMsgN  int64  `json:"sendmsg_n,omitempty"`
	SendMsgNs int64  `json:"sendmsg_ns,omitempty"`
	ReplyN    int64  `json:"reply_n,omitempty"`
	ReplyNs   int64  `json:"reply_ns,omitempty"`
}

// counters is one sample of the public counters, summed over nodes and
// channels, taken at a RunUntil slice boundary.
type counters struct {
	SimNs   int64              `json:"sim_ns"`
	Fired   uint64             `json:"fired"`
	Pending int                `json:"pending"`
	Fabric  fabric.Stats       `json:"fabric"`
	RNIC    rnic.Counters      `json:"rnic"`
	Ctx     xrdma.ContextStats `json:"ctx"`
	Chan    xrdma.ChannelStats `json:"chan"`
}

func snapshot(w *world) counters {
	c := counters{SimNs: int64(w.eng.Now()), Fired: w.eng.Fired(), Pending: w.eng.Pending(), Fabric: w.c.Fab.Stats}
	for _, n := range w.c.Nodes {
		addInts(&c.RNIC, &n.NIC.Counters)
		addInts(&c.Ctx, &n.Ctx.Stats)
	}
	for _, cl := range w.clients {
		addInts(&c.Chan, &cl.ch.Counters)
	}
	for _, ch := range w.srvChans {
		addInts(&c.Chan, &ch.Counters)
	}
	return c
}

// tracer records one traced repetition: spans around cluster.New,
// establishment and every RunUntil slice, per-call host time of SendMsg
// and Reply, counter samples at slice boundaries, and the CPU and
// allocation profiles of the run phase. Everything stays in memory until
// the run ends.
type tracer struct {
	origin time.Time
	spans  []span
	series []counters

	sendNs, sendN   int64
	replyNs, replyN int64
	folded          [4]int64 // the four totals above at the last slice end

	cpu     bytes.Buffer
	allocs0 map[string]int64
	rt0     [3]float64
	gc0     uint32
}

// traceResult is what one traced repetition contributes.
type traceResult struct {
	buildS, establishS float64
	delta              counters // run phase: last sample minus first
	msgs               int64
	cmEvents           int64
	sliceMs            []float64
	nsPerEvent         float64 // run-phase slice time per event fired
	pendingMax         int
	sendNs, replyNs    float64
	cpu                map[string]int64 // CPU ns by layer
	allocs             map[string]int64 // allocated objects by layer
	gcCycles           uint32
	gcCPU, busyCPU     float64
	cpuProfile         []byte
	allocProfile       []byte
	spans              []span
	series             []counters
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) span(name string, start time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, StartNs: start.Sub(t.origin).Nanoseconds(), DurNs: time.Since(start).Nanoseconds()})
}

func (t *tracer) slice(w *world, start time.Time) {
	t.spans = append(t.spans, span{
		Name: "sim.slice", Parent: "run",
		StartNs: start.Sub(t.origin).Nanoseconds(), DurNs: time.Since(start).Nanoseconds(),
		SendMsgN: t.sendN - t.folded[0], SendMsgNs: t.sendNs - t.folded[1],
		ReplyN: t.replyN - t.folded[2], ReplyNs: t.replyNs - t.folded[3],
	})
	t.folded = [4]int64{t.sendN, t.sendNs, t.replyN, t.replyNs}
	t.series = append(t.series, snapshot(w))
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() (v [3]float64, gcs uint32) {
	metrics.Read(rtSamples)
	for i, s := range rtSamples {
		if s.Value.Kind() == metrics.KindFloat64 {
			v[i] = s.Value.Float64()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return v, ms.NumGC
}

// allocSnapshot returns cumulative allocated objects by layer, read from
// the allocs profile after a GC has published it.
func allocSnapshot() (map[string]int64, []byte, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, nil, fmt.Errorf("allocs profile: %w", err)
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	return bucketProfile(samples, 0), buf.Bytes(), nil
}

// begin opens the run phase: first counter sample, allocation baseline,
// CPU profile on.
func (t *tracer) begin(w *world) error {
	var err error
	if t.allocs0, _, err = allocSnapshot(); err != nil {
		return err
	}
	t.series = append(t.series, snapshot(w))
	t.rt0, t.gc0 = readRuntime()
	return pprof.StartCPUProfile(&t.cpu)
}

// end closes the run phase and reduces it to a traceResult.
func (t *tracer) end(w *world) (*traceResult, error) {
	pprof.StopCPUProfile()
	rt1, gc1 := readRuntime()
	allocs1, allocProf, err := allocSnapshot()
	if err != nil {
		return nil, err
	}
	cpuSamples, err := decodeProfile(t.cpu.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	r := &traceResult{
		msgs:         w.answered,
		cpu:          bucketProfile(cpuSamples, 1),
		allocs:       map[string]int64{},
		gcCycles:     gc1 - t.gc0,
		gcCPU:        rt1[0] - t.rt0[0],
		busyCPU:      (rt1[1] - t.rt0[1]) - (rt1[2] - t.rt0[2]),
		cpuProfile:   t.cpu.Bytes(),
		allocProfile: allocProf,
		spans:        t.spans,
		series:       t.series,
	}
	for _, l := range layers {
		r.allocs[l] = allocs1[l] - t.allocs0[l]
	}
	first, last := t.series[0], t.series[len(t.series)-1]
	r.delta = counters{
		SimNs: last.SimNs - first.SimNs, Fired: last.Fired - first.Fired,
		Fabric: subInts(last.Fabric, first.Fabric), RNIC: subInts(last.RNIC, first.RNIC),
		Ctx: subInts(last.Ctx, first.Ctx), Chan: subInts(last.Chan, first.Chan),
	}
	for _, s := range t.series {
		r.pendingMax = max(r.pendingMax, s.Pending)
	}
	var sliceNs int64
	for _, sp := range t.spans {
		switch sp.Name {
		case "cluster.build":
			r.buildS = float64(sp.DurNs) / 1e9
		case "xrdma.establish":
			r.establishS = float64(sp.DurNs) / 1e9
		case "sim.slice":
			r.sliceMs = append(r.sliceMs, float64(sp.DurNs)/1e6)
			sliceNs += sp.DurNs
		}
	}
	r.nsPerEvent = float64(sliceNs) / float64(max(r.delta.Fired, 1))
	if t.sendN > 0 {
		r.sendNs = float64(t.sendNs) / float64(t.sendN)
	}
	if t.replyN > 0 {
		r.replyNs = float64(t.replyNs) / float64(t.replyN)
	}
	for _, n := range w.c.Nodes {
		r.cmEvents += n.CM.EstablishedConns
	}
	return r, nil
}

// layerValues reduces the traced repetitions to the per-layer metrics.
// Counts come from the first traced repetition (they repeat exactly, the
// digest gate enforces it); host times are medians over repetitions, in
// wall time; CPU shares and allocations pool every repetition. The two
// run_s arguments are scaled medians (refjob.go) for the overhead.
func layerValues(trs []*traceResult, tracedRunS, untracedRunS float64) map[string]float64 {
	r0 := trs[0]
	d := r0.delta
	msgs := float64(max(r0.msgs, 1))
	per := func(v int64) float64 { return float64(v) / msgs }
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	cpu := map[string]int64{}
	allocs := map[string]int64{}
	var allMsgs int64
	var gcCPU, busy float64
	var sliceMs, build, establish, send, reply, gcs, nsPerEv []float64
	for _, tr := range trs {
		for l, v := range tr.cpu {
			cpu[l] += v
		}
		for l, v := range tr.allocs {
			allocs[l] += v
		}
		allMsgs += tr.msgs
		gcCPU += tr.gcCPU
		busy += tr.busyCPU
		sliceMs = append(sliceMs, tr.sliceMs...)
		build = append(build, tr.buildS)
		establish = append(establish, tr.establishS)
		send = append(send, tr.sendNs)
		reply = append(reply, tr.replyNs)
		gcs = append(gcs, float64(tr.gcCycles))
		nsPerEv = append(nsPerEv, tr.nsPerEvent)
	}
	share := shares(cpu)
	allocPer := func(l string) float64 { return float64(allocs[l]) / float64(max(allMsgs, 1)) }
	v := map[string]float64{
		"sim.events_per_msg":        per(int64(d.Fired)),
		"xrdma.polls_per_msg":       per(d.Ctx.Polls),
		"xrdma.useful_poll_frac":    frac(d.Ctx.Dispatched, d.Ctx.Polls),
		"xrdma.event_wakes_per_msg": per(d.Ctx.EventWakes),

		"xrdma.allocs_per_msg":  allocPer("xrdma"),
		"sim.allocs_per_msg":    allocPer("sim"),
		"fabric.allocs_per_msg": allocPer("fabric"),
		"rnic.allocs_per_msg":   allocPer("rnic"),
		"runtime.gc_cycles":     median(gcs),

		"sim.ns_per_event": median(nsPerEv),
		"sim.pending_max":  float64(r0.pendingMax),
		"sim.slice_ms_p50": quantile(sliceMs, 0.50),
		"sim.slice_ms_p99": quantile(sliceMs, 0.99),

		"fabric.pkts_per_msg":    per(d.Fabric.Delivered),
		"rnic.pkts_sent_per_msg": per(d.RNIC.PktsSent),

		"fabric.ecn_marks_per_msg": per(d.Fabric.ECNMarks),
		"fabric.pause_tx":          float64(d.Fabric.PauseTX),
		"fabric.drops":             float64(d.Fabric.Drops),
		"rnic.cnps":                float64(d.RNIC.CNPSent),
		"rnic.retransmits":         float64(d.RNIC.Retransmits),
		"rnic.rnr_naks":            float64(d.RNIC.RNRNakSent),

		"rnic.qpcache_miss_frac": frac(d.RNIC.QPCacheMisses, d.RNIC.QPCacheMisses+d.RNIC.QPCacheHits),
		"xrdma.acks_per_msg":     per(d.Ctx.AcksSent),
		"xrdma.nops_per_msg":     per(d.Ctx.NopsSent),

		"cluster.build_s":   median(build),
		"xrdma.establish_s": median(establish),
		"verbs.cm_events":   float64(r0.cmEvents),

		"xrdma.sendmsg_ns": median(send),
		"xrdma.reply_ns":   median(reply),

		"trace.overhead_frac": tracedRunS/untracedRunS - 1,
	}
	if busy > 0 {
		v["runtime.gc_cpu_frac"] = gcCPU / busy
	} else {
		v["runtime.gc_cpu_frac"] = 0
	}
	for _, l := range layers {
		v[l+".cpu_share"] = share[l]
	}
	return v
}

// ledgerRows sets events per msg beside the counters that roughly account
// for them: poll ticks (one event each) and per-hop packet delivery. The
// remainder is unattributed until the engine tags its own events.
func ledgerRows(v map[string]float64) [][2]string {
	ev := v["sim.events_per_msg"]
	polls := v["xrdma.polls_per_msg"]
	pkts := v["fabric.pkts_per_msg"]
	pct := func(x float64) string {
		if ev == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*x/ev)
	}
	return [][2]string{
		{"sim.events_per_msg", fmt.Sprintf("%.2f  100%%", ev)},
		{"  poll ticks (xrdma.polls_per_msg)", fmt.Sprintf("%.2f  %s", polls, pct(polls))},
		{"  per-hop delivery (fabric.pkts_per_msg)", fmt.Sprintf("%.2f  %s", pkts, pct(pkts))},
		{"  unattributed", fmt.Sprintf("%.2f  %s", ev-polls-pkts, pct(ev-polls-pkts))},
	}
}
