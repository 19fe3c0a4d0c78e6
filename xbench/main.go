// Command xbench is the repository benchmark. It builds one simulated
// X-RDMA world per workload through the public constructors, drives it
// from one goroutine, checks every reply, and prints what the run cost
// the host and what the modelled middleware delivered.
//
//	go run . --workload rpc-small --seed 1 --seconds 20 --trace 0
//
// A run repeats set-up and the measured phase (a fixed simulated horizon)
// until --seconds of host time are used, reports host metrics as medians
// over the repetitions, scaled by a reference job to cancel host-speed
// drift (refjob.go), and fails unless every repetition reproduces the
// same simulated outcome. The driver runs on one P: the simulator is
// single-threaded, so with GOMAXPROCS=1 its garbage collection is charged
// to run_s and the reference job times the processor the work runs on. --trace 1 alternates traced and untraced
// repetitions and prints the per-layer metrics instead; --workload all
// runs every workload in turn. The last line of output is one JSON
// object: correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"xrdma/internal/rnic"
)

const (
	minReps   = 3 // ≥2 so the determinism gate always compares
	setupReps = 5 // extra set-up-only repetitions feeding setup_s
)

type options struct {
	seed    uint64
	seconds float64
	traced  bool
	outDir  string
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "host seconds to measure per workload")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	out := fs.String("out", filepath.Join(".bench_build", "xbench-trace"), "directory for traced-run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *out}
	todo := specs
	if *name != "all" {
		sp, err := specByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "xbench:", err)
			return 2
		}
		todo = []*spec{sp}
	}
	code := 0
	for _, sp := range todo {
		res, err := runWorkload(sp, opt, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "xbench: %s: %v\n", sp.name, err)
			return 2
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "xbench:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// rep is one repetition: set-up plus the measured phase.
type rep struct {
	setupS, runS    float64 // wall seconds
	refS            float64 // reference job, mean of before and after
	answered        int64
	issued, failed  int64
	mallocs         uint64
	liveHeapMB      float64
	p50, p99        int64
	samples         int
	inWindow, bytes int64
	digest          uint64
	errs            []string
	trace           *traceResult
}

// scale converts the repetition's wall seconds to scaled seconds (see
// refjob.go).
func (r *rep) scale() float64 { return refNominal / r.refS }

func measure(sp *spec, seed uint64, traced bool) (*rep, error) {
	runtime.GC()
	ref0 := refJob()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	w, err := buildWorld(sp, seed, tr)
	if err != nil {
		return nil, err
	}
	r := &rep{setupS: time.Since(t0).Seconds()}
	runtime.GC()
	if traced {
		if err := tr.begin(w); err != nil {
			return nil, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t1 := time.Now()
	w.runPhase()
	r.runS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&ms1)
	tr.span("run", t1)
	if traced {
		if r.trace, err = tr.end(w); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	// The reference job's arena lives on the heap too; it is not the world's.
	r.liveHeapMB = float64(ms2.HeapAlloc-uint64(4*len(refArena))) / (1 << 20)
	r.refS = (ref0 + refJob()) / 2

	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.answered, r.issued, r.failed = w.answered, w.issued, w.failed
	r.inWindow, r.bytes = w.inWindow, w.bytesInWindow
	r.errs = w.errs
	slices.Sort(w.lat)
	r.samples = len(w.lat)
	r.p50, r.p99 = rankPct(w.lat, 50), rankPct(w.lat, 99)
	var nic rnic.Counters
	for _, n := range w.c.Nodes {
		addInts(&nic, &n.NIC.Counters)
	}
	r.digest = digest(w.lat, w.issued, w.answered, w.failed, w.inWindow, w.bytesInWindow, w.c.Fab.Stats, nic)
	runtime.KeepAlive(w)
	return r, nil
}

// setupOnly builds and establishes a world and returns the scaled set-up
// time.
func setupOnly(sp *spec, seed uint64) (float64, error) {
	runtime.GC()
	ref0 := refJob()
	t0 := time.Now()
	w, err := buildWorld(sp, seed, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0).Seconds()
	runtime.KeepAlive(w)
	runtime.GC()
	return d * refNominal / ((ref0 + refJob()) / 2), nil
}

// runWorkload repeats the workload until the time budget is spent, gates
// correctness and determinism, prints the report and returns the result.
func runWorkload(sp *spec, opt options, stdout io.Writer) (*result, error) {
	start := time.Now()
	budget := opt.seconds
	refJob() // fills the job's table once, so later calls allocate nothing
	var setups []float64
	for i := 0; i < setupReps; i++ {
		s, err := setupOnly(sp, opt.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	var plain, traced []*rep
	var repSecs []float64
	for {
		n := len(plain) + len(traced)
		if n >= minReps && (!opt.traced || len(traced) >= 2) {
			// Stop when another repetition would overrun the budget.
			if time.Since(start).Seconds()+median(slices.Clone(repSecs)) > budget {
				break
			}
		}
		t := time.Now()
		tracedRep := opt.traced && n%2 == 1
		r, err := measure(sp, opt.seed, tracedRep)
		if err != nil {
			return nil, err
		}
		repSecs = append(repSecs, time.Since(t).Seconds())
		setups = append(setups, r.setupS*r.scale())
		if tracedRep {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := append(slices.Clone(plain), traced...)

	res := &result{Correct: true, Metrics: map[string]metricVal{}}
	var problems []string
	for i, r := range all {
		res.Attempted += r.issued
		res.Failed += r.failed
		for _, e := range r.errs {
			problems = append(problems, fmt.Sprintf("rep %d: %s", i, e))
		}
		if r.digest != all[0].digest {
			problems = append(problems, fmt.Sprintf("rep %d: simulated digest %016x differs from rep 0's %016x (same seed)", i, r.digest, all[0].digest))
		}
	}
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("fail_frac %.6f on a fault-free run", float64(res.Failed)/float64(res.Attempted)))
	}

	r0 := all[0]
	horizonS := sp.horizon.Seconds()
	pick := func(reps []*rep, f func(*rep) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	runS := pick(plain, func(r *rep) float64 { return r.runS * r.scale() })
	vals := map[string]float64{
		"setup_s":          median(setups),
		"run_s":            runS,
		"msgs_per_host_s":  pick(plain, func(r *rep) float64 { return float64(r.answered) / (r.runS * r.scale()) }),
		"allocs_per_msg":   pick(plain, func(r *rep) float64 { return float64(r.mallocs) / float64(max(r.answered, 1)) }),
		"live_heap_mb":     pick(plain, func(r *rep) float64 { return r.liveHeapMB }),
		"sim_p50_us":       float64(r0.p50) / 1e3,
		"sim_p99_us":       float64(r0.p99) / 1e3,
		"sim_kops":         float64(r0.inWindow) / horizonS / 1e3,
		"sim_goodput_gbps": float64(r0.bytes) * 8 / horizonS / 1e9,
		"success_frac":     float64(r0.answered) / float64(max(r0.issued, 1)),
	}
	failFrac := float64(r0.failed) / float64(max(r0.issued, 1))

	fmt.Fprintf(stdout, "workload %s seed %d: %d untraced + %d traced repetitions, %d set-ups, %.1f s\n  (%s)\n",
		sp.name, opt.seed, len(plain), len(traced), len(setups), time.Since(start).Seconds(), sp.why)
	fmt.Fprintf(stdout, "  per repetition: %d requests issued, %d answered, %d latency samples, horizon %v + drain ≤ %v, digest %016x\n",
		r0.issued, r0.answered, r0.samples, sp.horizon, drainMax, r0.digest)
	fmt.Fprint(stdout, "  by repetition, wall run s / reference job ms:")
	for _, r := range plain {
		fmt.Fprintf(stdout, " %.3f/%.1f", r.runS, 1e3*r.refS)
	}
	fmt.Fprintf(stdout, "\n  host times below are scaled to a %.0f ms reference job (refjob.go)\n", 1e3*refNominal)
	for _, m := range e2eMetrics {
		fmt.Fprintf(stdout, "  %-18s %14.6g %s\n", m.name, vals[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "  %-18s %14.6g %s\n", "fail_frac", failFrac, "frac")

	if opt.traced {
		tracedRunS := pick(traced, func(r *rep) float64 { return r.runS * r.scale() })
		var trs []*traceResult
		for _, r := range traced {
			trs = append(trs, r.trace)
		}
		lv := layerValues(trs, tracedRunS, runS)
		var sum float64
		for _, l := range layers {
			sum += lv[l+".cpu_share"]
		}
		if sum < 0.99 || sum > 1.01 {
			problems = append(problems, fmt.Sprintf("cpu_share buckets sum to %.4f, want 1 ± 0.01", sum))
		}
		fmt.Fprintf(stdout, "  traced run_s %.4g s vs untraced %.4g s: overhead %+.1f%%\n", tracedRunS, runS, 100*lv["trace.overhead_frac"])
		fmt.Fprintln(stdout, "per-layer metrics (traced run):")
		for _, m := range layerMetrics {
			fmt.Fprintf(stdout, "  %-26s %12.6g %-6s moves: %s\n", m.name, lv[m.name], m.unit, m.moves)
			res.Metrics[m.name] = metricVal{Value: lv[m.name], Unit: m.unit}
		}
		fmt.Fprintf(stdout, "event ledger, %s (outside-in approximation):\n", sp.name)
		for _, row := range ledgerRows(lv) {
			fmt.Fprintf(stdout, "  %-42s %s\n", row[0], row[1])
		}
		fmt.Fprintln(stdout, "  in-engine per-event layer tags (a later change) will split the unattributed remainder")
		path, err := writeArtifacts(opt.outDir, sp.name, opt.seed, trs, lv)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "trace artifacts: %s\n", path)
	} else {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricVal{Value: vals[m.name], Unit: m.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "CORRECTNESS:", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// writeArtifacts writes the last traced repetition's spans, counter
// series and profiles, plus the per-layer values, under dir.
func writeArtifacts(dir, name string, seed uint64, trs []*traceResult, lv map[string]float64) (string, error) {
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("trace artifacts: %w", err)
	}
	last := trs[len(trs)-1]
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Layer    map[string]float64 `json:"per_layer"`
		CPU      map[string]int64   `json:"cpu_ns_by_layer"`
		Allocs   map[string]int64   `json:"allocs_by_layer"`
		Spans    []span             `json:"spans"`
		Series   []counters         `json:"counters"`
	}{name, seed, lv, last.cpu, last.allocs, last.spans, last.series}
	js, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	errs := []error{
		os.WriteFile(filepath.Join(base, "trace.json"), js, 0o644),
		os.WriteFile(filepath.Join(base, "cpu.pprof"), last.cpuProfile, 0o644),
		os.WriteFile(filepath.Join(base, "allocs.pprof"), last.allocProfile, 0o644),
	}
	if err := errors.Join(errs...); err != nil {
		return "", fmt.Errorf("trace artifacts: %w", err)
	}
	return base, nil
}
