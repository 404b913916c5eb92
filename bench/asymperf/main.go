// Command asymperf is the repository's benchmark. It drives one seeded
// workload through the program's public APIs — extmem.Sort directly, or
// an in-process asymsortd (serve.NewServer behind httptest), or a
// 3-worker in-process cluster (cluster.New) — verifies every output,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root through bench/run.sh, which builds
// it from source first:
//
//	bash bench/run.sh --workload ext-classic-p1 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seconds 15
//	bash bench/run.sh -compare bench/results/seed.json:a bench/results/seed.json:b
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) measures the same workload once untraced and once
// with every trace hook the program offers switched on, then runs the
// layer probes, and reports the per-layer metrics; the span JSONL goes
// to <build-dir>/trace/<workload>/. bench/README.md has the workload
// table and the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"asymsort/internal/obs"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, and only the last environment is measured.
const setupRuns = 3

// options are one invocation's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	buildDir string
	// short runs every workload at shortScale (the smoke tests).
	short bool
	cat   *catalogue
	out   io.Writer
}

func (o *options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// env is a set-up workload, ready to measure.
type env interface {
	// run drives operations until d has elapsed (operations in flight
	// then complete) and returns them. span, when non-nil, is the
	// harness trace span every operation hangs its own span under.
	run(d time.Duration, span *obs.Span) (*window, error)
	// layers derives the workload's extmem.* per-layer metrics from a
	// traced window, plus workload-specific layer numbers that are
	// printed and recorded but not part of the catalogue.
	layers(w *window) (core, extra map[string]float64, err error)
	// close tears the environment down and reports leftovers: spill or
	// job files in the tmpdir, an envelope not whole again.
	close() error
}

// op is one timed operation.
type op struct {
	class  string // "sort" (a direct engine run), "small" or "bulk"
	wire   string
	kernel string
	recs   int
	bytes  int64
	wall   time.Duration
	ttfb   time.Duration
	writes uint64
	jobID  int // X-Asymsortd-Job of a served operation
	err    error
	paper  *paperCols // direct engine runs only
}

// window is one measured stretch of a workload.
type window struct {
	ops      []op
	makespan time.Duration
	// perOp marks workloads whose operations all have the same input:
	// throughput is then one input over the median operation wall, which
	// is steadier than a makespan over a handful of long operations.
	perOp bool
	// The engine's block ledger over the window, across every operation.
	reads, writes uint64
	// checks are run-level failures found after the operations ended.
	checks []error
}

func (w *window) failed() int {
	n := 0
	for _, o := range w.ops {
		if o.err != nil {
			n++
		}
	}
	return n
}

// throughput is input MB per second: one input over the median
// operation wall on perOp windows, all input bytes over the makespan
// otherwise.
func (w *window) throughput() float64 {
	var walls []float64
	var bytes int64
	for _, o := range w.ops {
		if o.err == nil {
			walls = append(walls, o.wall.Seconds())
			bytes += o.bytes
		}
	}
	if len(walls) == 0 {
		return math.NaN()
	}
	if w.perOp {
		return float64(bytes) / float64(len(walls)) / median(walls) / 1e6
	}
	return float64(bytes) / w.makespan.Seconds() / 1e6
}

// endToEnd computes the end-to-end metrics of an untraced window. An
// operation is one 64 MiB sort on ext-* and one HTTP job on the served
// workloads; its latency runs from the request start to the last
// response byte. The two counts are the paper's costs per million input
// records: device block writes W, and R + ω·W at the pinned ω.
func endToEnd(w *window, setupS float64) map[string]float64 {
	var lat []float64
	recs := 0
	for _, o := range w.ops {
		recs += o.recs
		if o.err == nil {
			lat = append(lat, ms(o.wall))
		}
	}
	return map[string]float64{
		"setup_s":               setupS,
		"throughput_mb_s":       w.throughput(),
		"p50_ms":                quantile(lat, 0.5),
		"p90_ms":                quantile(lat, 0.9),
		"block_writes_per_mrec": perMrec(float64(w.writes), recs),
		"asym_cost_per_mrec":    perMrec(float64(w.reads)+omegaPin*float64(w.writes), recs),
	}
}

// perMrec scales a count to one per million records.
func perMrec(count float64, recs int) float64 { return count * 1e6 / float64(recs) }

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produced: the final line plus the
// detail a results file records beside it.
type report struct {
	res    result
	detail map[string]any
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, as BENCHMARK.json names it, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of one measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = the end-to-end metrics")
	flag.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for working files and traces")
	recordFile := flag.String("record", "", "append this run to a results file (see -compare)")
	set := flag.String("set", "a", "label of the run in the -record file")
	compare := flag.Bool("compare", false, "compare two results files: asymperf -compare old.json[:set] new.json[:set]")
	flag.Parse()
	o.trace = *traceFlag != 0
	o.out = os.Stdout
	cat, err := loadCatalogue(catalogueFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "asymperf:", err)
		os.Exit(1)
	}
	o.cat = cat

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: asymperf -compare old.json[:set] new.json[:set]")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, cat, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "asymperf:", err)
			os.Exit(1)
		}
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "asymperf: --trace takes 0 or 1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = cat.workloadNames()
	}
	ok := true
	for _, name := range names {
		o.workload = name
		rep, err := run(&o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymperf: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *recordFile != "" {
			if err := appendRecord(*recordFile, *set, &o, rep); err != nil {
				fmt.Fprintln(os.Stderr, "asymperf:", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(rep.res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "asymperf:", err)
			os.Exit(1)
		}
		fmt.Fprintf(o.out, "%s\n", line)
		ok = ok && rep.res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// run measures one workload and builds its report.
func run(o *options) (*report, error) {
	setup, ok := setups[o.workload]
	if !ok || !slices.Contains(o.cat.workloadNames(), o.workload) {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(o.cat.workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	sc := fullScale
	if o.short {
		sc = shortScale
	}
	workDir, err := filepath.Abs(filepath.Join(o.buildDir, "tmp", o.workload))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(workDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	fmt.Fprintf(o.out, "workload %s  seed %d  seconds %g  trace %v  GOMAXPROCS %d  NumCPU %d  %s/%s %s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.GOOS, runtime.GOARCH, runtime.Version())

	var checks []error
	var e env
	var setupWalls []float64
	for i := range setupRuns {
		if e != nil {
			checks = append(checks, e.close())
		}
		start := time.Now()
		e, err = setup(o, &sc, filepath.Join(workDir, fmt.Sprintf("setup%d", i)), "")
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(start).Seconds())
	}
	setupS := median(setupWalls)
	settle()
	w, err := e.run(o.window(), nil)
	checks = append(checks, e.close())
	if err != nil {
		return nil, err
	}
	checks = append(checks, w.checks...)
	rep := &report{detail: map[string]any{"setups_s": setupWalls}}
	attempted, failed := len(w.ops), w.failed()
	rep.detail["ops"] = opSummary(w)

	metrics := endToEnd(w, setupS)
	printMetrics(o.out, "end-to-end", metrics, o.cat.EndToEnd)
	printClasses(o.out, w)
	printFailures(o.out, w.ops)
	catalogue := o.cat.EndToEnd

	if o.trace {
		tw, layers, err := traced(o, setup, &sc, workDir, w)
		if err != nil {
			return nil, err
		}
		attempted += len(tw.ops)
		failed += tw.failed()
		checks = append(checks, tw.checks...)
		printFailures(o.out, tw.ops)
		metrics = layers.core
		rep.detail["layers"] = layers.extra
		rep.detail["traced_ops"] = opSummary(tw)
		catalogue = o.cat.PerLayer
	}
	if w.perOp {
		rep.detail["paper"] = paperTable(o.out, w)
	}

	correct := failed == 0
	for _, err := range checks {
		if err != nil {
			correct = false
			fmt.Fprintf(o.out, "CHECK FAILED: %v\n", err)
		}
	}
	rep.res = result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range catalogue {
		v, ok := metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric the run could not measure (every operation failed)
			// is reported as 0 on a run that is not correct.
			fmt.Fprintf(o.out, "CHECK FAILED: metric %s not measured\n", m.Name)
			v, rep.res.Correct = 0, false
		}
		rep.res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return rep, nil
}

// layerResult is a traced run's per-layer output.
type layerResult struct {
	core  map[string]float64 // the catalogue's per-layer metrics
	extra map[string]float64 // workload-specific layer numbers
}

// traced measures the workload again with tracing on, runs the layer
// probes, and writes the harness spans next to the program's own.
func traced(o *options, setup setupFunc, sc *scale, workDir string, untraced *window) (*window, *layerResult, error) {
	traceDir, err := filepath.Abs(filepath.Join(o.buildDir, "trace", o.workload))
	if err != nil {
		return nil, nil, err
	}
	if err := os.RemoveAll(traceDir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	e, err := setup(o, sc, filepath.Join(workDir, "traced"), traceDir)
	if err != nil {
		return nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	settle()
	tr := obs.NewTrace("asymperf-" + o.workload)
	root := tr.Root("window")
	w, err := e.run(o.window(), root)
	root.End()
	if err != nil {
		e.close()
		return nil, nil, err
	}
	core, extra, err := e.layers(w)
	w.checks = append(w.checks, e.close())
	if err != nil {
		return nil, nil, err
	}
	// Read before the probes, whose buffers would otherwise set the peak.
	core["extmem.peak_rss_mb"] = peakRSSMB()
	probeDir := filepath.Join(workDir, "probes")
	if err := os.MkdirAll(probeDir, 0o755); err != nil {
		return nil, nil, err
	}
	probes, err := runProbes(probeDir, sc)
	if err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range probes {
		core[k] = v
	}
	core["trace.overhead_frac"] = 1 - w.throughput()/untraced.throughput()

	f, err := os.Create(filepath.Join(traceDir, "harness.trace.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Close(); err != nil {
		return nil, nil, err
	}
	self, err := selfTimes(traceDir)
	if err != nil {
		return nil, nil, err
	}
	printSelfTimes(o.out, traceDir, self)
	printMetrics(o.out, "per-layer", core, o.cat.PerLayer)
	printExtra(o.out, extra)
	return w, &layerResult{core: core, extra: extra}, nil
}

// settle runs, untimed, before every measured stretch: it collects the
// set-up's garbage and flushes the hundreds of MB of inputs it wrote,
// so neither a GC cycle nor the kernel's writeback of set-up files
// lands inside the measurement.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func printMetrics(w io.Writer, title string, vals map[string]float64, cat []metric) {
	fmt.Fprintf(w, "-- %s metrics --\n", title)
	for _, m := range cat {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, vals[m.Name], m.Unit)
	}
}

func printExtra(w io.Writer, extra map[string]float64) {
	if len(extra) == 0 {
		return
	}
	fmt.Fprintln(w, "-- workload layer metrics (recorded, not catalogued) --")
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %14.4f\n", k, extra[k])
	}
}

func printFailures(w io.Writer, ops []op) {
	shown := 0
	for _, o := range ops {
		if o.err != nil && shown < 5 {
			fmt.Fprintf(w, "FAILED %s %s %s n=%d: %v\n", o.class, o.kernel, o.wire, o.recs, o.err)
			shown++
		}
	}
}

// classLatencies groups the verified operations' latencies (ms) by
// class: the small and bulk jobs that p50_ms and p90_ms pool on
// serve-mixed.
func classLatencies(w *window) map[string][]float64 {
	classes := map[string][]float64{}
	for _, o := range w.ops {
		if o.err == nil {
			classes[o.class] = append(classes[o.class], ms(o.wall))
		}
	}
	return classes
}

func printClasses(w io.Writer, win *window) {
	classes := classLatencies(win)
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		lat := classes[c]
		fmt.Fprintf(w, "  class %-8s n=%-5d p50 %10.3f ms  p90 %10.3f ms\n", c, len(lat), quantile(lat, 0.5), quantile(lat, 0.9))
	}
}

// opSummary condenses a window for the results file.
func opSummary(w *window) map[string]any {
	out := map[string]any{
		"ops": len(w.ops), "failed": w.failed(), "makespan_s": w.makespan.Seconds(),
		"reads": w.reads, "writes": w.writes,
	}
	for c, lat := range classLatencies(w) {
		out[c+"_n"] = len(lat)
		out[c+"_p50_ms"] = quantile(lat, 0.5)
		out[c+"_p90_ms"] = quantile(lat, 0.9)
	}
	return out
}

// checkLeftovers reports spill or job files the program left in dir.
func checkLeftovers(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var left []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "asymsort-") || strings.HasPrefix(e.Name(), "asymsortd-job") ||
			strings.HasPrefix(e.Name(), "asymcoord-job") {
			left = append(left, e.Name())
		}
	}
	if len(left) > 0 {
		return fmt.Errorf("leftover files in %s: %s", dir, strings.Join(left, ", "))
	}
	return nil
}
