package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"xrdma/internal/sim"
	"xrdma/internal/xrdma"
)

// short returns a copy of the named workload with a short horizon, so a
// repetition takes well under a second.
func short(t *testing.T, name string) *spec {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cp := *sp
	switch name {
	case "mux-fanout":
		cp.horizon = 10 * sim.Millisecond
	case "incast-large":
		cp.horizon = 5 * sim.Millisecond
	default:
		cp.horizon = 500 * sim.Microsecond
	}
	return &cp
}

func TestSmokeEachWorkload(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			r, err := measure(short(t, sp.name), 7, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.errs) > 0 || r.failed != 0 {
				t.Fatalf("correctness: failed=%d errs=%v", r.failed, r.errs)
			}
			if r.issued == 0 || r.answered != r.issued || r.samples != int(r.answered) {
				t.Fatalf("issued %d answered %d samples %d", r.issued, r.answered, r.samples)
			}
			if r.p50 <= 0 || r.p99 < r.p50 || r.inWindow == 0 {
				t.Fatalf("p50 %d p99 %d inWindow %d", r.p50, r.p99, r.inWindow)
			}
		})
	}
}

// TestGateCatchesWrongID swaps every server handler for one that replies
// without echoing the request id; the gate must flag the run.
func TestGateCatchesWrongID(t *testing.T) {
	w, err := buildWorld(short(t, "rpc-small"), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range w.srvChans {
		ch.OnMessage(func(m *xrdma.Msg) { m.Reply(make([]byte, replySize), 0) })
	}
	w.runPhase()
	if w.failed == 0 || len(w.errs) == 0 || !strings.Contains(w.errs[0], "reply id") {
		t.Fatalf("wrong ids not caught: failed=%d errs=%v", w.failed, w.errs)
	}
}

// TestGateCatchesLostReply drops every request on the floor; the drain
// must count them all as failed.
func TestGateCatchesLostReply(t *testing.T) {
	w, err := buildWorld(short(t, "incast-large"), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range w.srvChans {
		ch.OnMessage(func(*xrdma.Msg) {})
	}
	w.runPhase()
	if w.failed == 0 || w.failed != w.issued || w.answered != 0 {
		t.Fatalf("lost replies not caught: issued=%d failed=%d answered=%d", w.issued, w.failed, w.answered)
	}
}

func TestDigestDeterministic(t *testing.T) {
	sp := short(t, "mux-fanout")
	a, err := measure(sp, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure(sp, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := measure(sp, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest || a.p50 != b.p50 || a.p99 != b.p99 || a.inWindow != b.inWindow {
		t.Fatalf("same seed, different outcome: %016x vs %016x", a.digest, b.digest)
	}
	if a.digest == c.digest {
		t.Fatalf("seeds 5 and 6 gave the same digest %016x: the seed does not reach the load", a.digest)
	}
	lat := []int64{1, 2, 3}
	if digest(lat, int64(1)) == digest(lat, int64(2)) || digest(lat, int64(1)) != digest([]int64{1, 2, 3}, int64(1)) {
		t.Fatal("digest does not track its inputs")
	}
}

func TestBucketStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "xrdma/internal/xrdma.(*Channel).transmit", "xrdma/internal/sim.(*Engine).Step"}, "xrdma"},
		{[]string{"xrdma/internal/sim.(*Engine).siftDown", "xrdma/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"sort.Slice", "xrdma/internal/fabric.(*Switch).forward"}, "fabric"},
		{[]string{"main.(*slot).send", "xrdma/internal/xrdma.(*Channel).deliver"}, "workload"},
		{[]string{"xrdma/internal/workload.(*OpenLoop).tick"}, "workload"},
		{[]string{"xrdma/internal/cluster.New"}, "other"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"syscall.Syscall", "os.(*File).Write"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketStack(c.stack); got != c.want {
			t.Errorf("bucketStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	sh := shares(map[string]int64{"sim": 3, "other": 1, "xrdma": 4})
	var sum float64
	for _, l := range layers {
		sum += sh[l]
	}
	if math.Abs(sum-1) > 1e-9 || sh["sim"] != 3.0/8 || sh["rnic"] != 0 {
		t.Fatalf("shares %v sum %v", sh, sum)
	}
}

var sink uint64

// spin burns CPU in this package for about d. The hot loop touches only
// a local, so even a race-instrumented build spends its time here.
//
//go:noinline
func spin(d time.Duration) {
	x := sink
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

// TestDecodeRealProfile decodes a CPU profile written by runtime/pprof and
// checks the bucketed shares: they sum to 1 and the spinning driver code
// lands in the workload bucket.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	sh := shares(bucketProfile(samples, 1))
	var sum float64
	for _, l := range layers {
		sum += sh[l]
	}
	if math.Abs(sum-1) > 0.01 {
		t.Fatalf("shares sum to %v", sum)
	}
	if sh["workload"] < 0.5 {
		t.Fatalf("spin loop not charged to workload: %v", sh)
	}
	if _, err := decodeProfile([]byte{0x12, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	var out bytes.Buffer
	res, err := runWorkload(short(t, "rpc-small"), options{seed: 2, seconds: 0, traced: true, outDir: t.TempDir()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed its gates:\n%s", out.String())
	}
	var sum float64
	for _, m := range layerMetrics {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit {
			t.Errorf("per-layer metric %s missing or wrong unit: %+v", m.name, v)
		}
		if strings.HasSuffix(m.name, ".cpu_share") {
			sum += v.Value
		}
	}
	if math.Abs(sum-1) > 0.01 {
		t.Errorf("cpu_share buckets sum to %v", sum)
	}
	for _, want := range []string{"event ledger", "unattributed", "trace artifacts"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("traced report lacks %q", want)
		}
	}
}

func TestUntracedRunReportsEveryE2EMetric(t *testing.T) {
	var out bytes.Buffer
	res, err := runWorkload(short(t, "incast-large"), options{seed: 2, seconds: 0}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v\n%s", res, out.String())
	}
	if len(res.Metrics) != len(e2eMetrics) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(e2eMetrics))
	}
	for _, m := range e2eMetrics {
		v, ok := res.Metrics[m.name]
		if !ok || v.Unit != m.unit || v.Value <= 0 {
			t.Errorf("end-to-end metric %s missing, wrong unit or not positive: %+v", m.name, v)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("code %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the driver:
// the same workloads and the same metric names, units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: json %q/%q, driver %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the driver", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: json %+v, driver %+v", kind, i, m, want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2eMetrics)
	check("per_layer", bj.PerLayer, layerMetrics)
}
