// Command asymload is the deterministic load generator for asymsortd:
// it drives the daemon with a seeded mix of concurrent sort jobs —
// sizes, key shapes, and arrival spacing all derived from one seed, so
// a run is exactly reproducible — verifies every response on the wire
// (sorted order, record count, and an order-independent multiset
// checksum against what it sent), cross-checks the daemon's /stats
// ledgers (every ext job's measured block writes must equal the
// simulated AEM plan's), and prints a throughput/latency table.
//
// -wire picks the dialect each job speaks: text (newline-decimal keys,
// the default), binary (internal/wire record frames both ways), or
// mixed (jobs alternate by id — the negotiation stress mode). The key
// mix, the checksum construction, and the -save dumps are identical
// across dialects, so a text run and a binary run with the same seed
// are directly diffable — and a per-wire-mode p50/p99 latency table is
// printed whenever jobs ran.
//
// -kernels widens the mix beyond sort: jobs draw their kernel from the
// listed pool (any internal/kernel registry name) and post to the
// generic /v1/{kernel} endpoint. Non-sort jobs are verified
// differentially — the client recomputes the kernel's in-memory
// reference from the job's seed and compares the response record for
// record — and their ext ledgers join the same /stats identity check.
//
// -cluster points the same mix at an asymsortd coordinator instead of
// a solo daemon: only the sort kernel runs (the cluster front-end
// scatters /sort alone), the wire verification is unchanged — the
// coordinator's gather is byte-identical to a solo run, so the same
// checksums must hold — and the solo /stats ledger check is replaced
// by a coordinator /stats check: every job reached state "done", with
// a shard/retry/hedge summary printed per run.
//
// Usage:
//
//	asymload -addr http://127.0.0.1:8077 -jobs 8 -concurrency 8 -seed 1
//	asymload -jobs 8 -concurrency 1           # the serialized baseline
//	asymload -jobs 8 -model ext -save outdir  # dump job inputs/outputs
//	asymload -jobs 8 -wire binary             # record frames both ways
//	asymload -jobs 12 -kernels sort,semisort,histogram,top-k,merge-join
//
// The same seed with -concurrency 1 runs the identical job mix one at
// a time — the serialized baseline a shared-envelope speedup is
// measured against (the CI smoke gates concurrent/serialized ≥ 1.5×).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"asymsort/internal/cluster"
	"asymsort/internal/obs"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

var shapeNames = []string{"uniform", "sorted", "reversed", "dups", "equal"}

// jobSpec is one job of the deterministic mix.
type jobSpec struct {
	id     int
	n      int
	shape  int
	seed   uint64
	binary bool   // speak the wire record-frame dialect both ways
	kernel string // registry kernel this job runs ("sort" = the classic path)
	// -mix scenario fields: class names the workload class ("small" or
	// "bulk", empty outside -mix), prio and deadline are sent as the
	// job's admission headers when set.
	class    string
	prio     int
	deadline time.Duration
}

func (sp jobSpec) wireName() string {
	if sp.binary {
		return "binary"
	}
	return "text"
}

// jobResult is what one finished job measured.
type jobResult struct {
	spec    jobSpec
	model   string
	memRecs int
	wall    time.Duration
	ttfb    time.Duration
	err     error
}

func main() {
	var (
		addr    = flag.String("addr", "http://127.0.0.1:8077", "asymsortd base URL")
		jobs    = flag.Int("jobs", 8, "number of jobs in the mix")
		conc    = flag.Int("concurrency", 0, "max in-flight jobs (0 = all at once; 1 = serialized baseline)")
		seed    = flag.Uint64("seed", 1, "mix seed: sizes, shapes, and per-job keys all derive from it")
		minN    = flag.Int("minn", 20000, "smallest job size in records")
		maxN    = flag.Int("maxn", 120000, "largest job size in records")
		shapes  = flag.String("shapes", "uniform,sorted,reversed,dups,equal", "comma-separated shape pool the mix draws from")
		spacing = flag.Duration("spacing", 0, "arrival spacing between job launches")
		model   = flag.String("model", "auto", "forwarded to /sort?model=")
		jobMem  = flag.Int("jobmem", 0, "per-job budget hint in records, forwarded as /sort?mem= (0 = server default)")
		save    = flag.String("save", "", "directory to dump each job's input/output text (for solo-run diffing)")
		wireFmt = flag.String("wire", "text", "job dialect: text | binary (record frames) | mixed (alternate by job id)")
		kernels = flag.String("kernels", "sort", "comma-separated kernel pool the mix draws from (see internal/kernel)")
		metrics = flag.Bool("metrics", false, "scrape /metrics before and after the run and verify the counter deltas and post-drain gauges")
		cluster = flag.Bool("cluster", false, "target is an asymsortd coordinator: sort-only mix, /stats checked for job completion and shard retries/hedges")
		mix     = flag.String("mix", "", "scenario generator: latency (small urgent jobs), throughput (bulk jobs), mixed (bulk background + small urgent foreground); adds priority/deadline headers and a per-class latency table")
		version = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuildInfo())
		return
	}
	if err := run(*addr, *jobs, *conc, *seed, *minN, *maxN, *shapes, *spacing, *model, *jobMem, *save, *wireFmt, *kernels, *metrics, *cluster, *mix); err != nil {
		fmt.Fprintf(os.Stderr, "asymload: %v\n", err)
		os.Exit(1)
	}
}

func run(addr string, jobs, conc int, seed uint64, minN, maxN int, shapeList string,
	spacing time.Duration, model string, jobMem int, save, wireMode, kernelList string,
	metricsCheck, clusterMode bool, mix string) error {
	if jobs < 1 || minN < 1 || maxN < minN {
		return fmt.Errorf("need -jobs >= 1 and 1 <= -minn <= -maxn")
	}
	switch mix {
	case "", "latency", "throughput", "mixed":
	default:
		return fmt.Errorf("bad -mix %q (latency | throughput | mixed)", mix)
	}
	if mix != "" && kernelList != "" && kernelList != "sort" {
		return fmt.Errorf("-mix scenarios run the sort kernel only, got -kernels %s", kernelList)
	}
	if clusterMode {
		if kernelList != "" && kernelList != "sort" {
			return fmt.Errorf("-cluster runs the sort kernel only (coordinators scatter /sort alone), got -kernels %s", kernelList)
		}
		if metricsCheck {
			return fmt.Errorf("-metrics checks solo-daemon envelope gauges; not meaningful against a coordinator")
		}
	}
	switch wireMode {
	case "":
		wireMode = "text"
	case "text", "binary", "mixed":
	default:
		return fmt.Errorf("bad -wire %q (text | binary | mixed)", wireMode)
	}
	if conc <= 0 {
		conc = jobs
	}
	pool, err := shapePool(shapeList)
	if err != nil {
		return err
	}
	if kernelList == "" {
		kernelList = "sort"
	}
	kpool, err := kernelPool(kernelList)
	if err != nil {
		return err
	}
	if save != "" {
		if err := os.MkdirAll(save, 0o755); err != nil {
			return err
		}
	}

	// The deterministic mix: every job's (n, shape, seed) comes from the
	// mix seed alone, so -concurrency changes scheduling, never work.
	rng := xrand.New(seed)
	specs := make([]jobSpec, jobs)
	for i := range specs {
		nDraw := rng.Next()
		specs[i] = jobSpec{
			id:     i,
			n:      minN + int(nDraw%uint64(maxN-minN+1)),
			shape:  pool[rng.Next()%uint64(len(pool))],
			seed:   rng.Next(),
			binary: wireMode == "binary" || (wireMode == "mixed" && i%2 == 1),
			kernel: kpool[rng.Next()%uint64(len(kpool))],
		}
		if mix != "" {
			// Scenario classing: "small" jobs are urgent interactive work
			// (high priority, a deadline, sizes near -minn); "bulk" jobs
			// are background batch work (default class, sizes near -maxn).
			// In the mixed scenario every fourth job is bulk.
			small := mix == "latency" || (mix == "mixed" && i%4 != 3)
			sp := &specs[i]
			if small {
				sp.class = "small"
				sp.prio = 4
				sp.deadline = time.Second
				span := min(minN, maxN-minN) + 1
				sp.n = minN + int(nDraw%uint64(span))
			} else {
				sp.class = "bulk"
				lo := max(maxN/2, minN)
				sp.n = lo + int(nDraw%uint64(maxN-lo+1))
			}
		}
	}

	fmt.Printf("asymload: %d jobs (%d..%d records) against %s, concurrency %d, spacing %v, seed %d, wire %s, kernels %s\n",
		jobs, minN, maxN, addr, conc, spacing, seed, wireMode, strings.Join(kpool, ","))
	if mix != "" {
		fmt.Printf("  scenario: %s (small: priority 4, deadline 1s, ~%d records; bulk: default class, ~%d records)\n",
			mix, minN, maxN)
	}

	// -metrics baseline: snapshot the daemon's counters before any of our
	// jobs land, so the post-run diff isolates exactly this mix even
	// against a daemon that has already served other load.
	var before *obs.Snapshot
	if metricsCheck {
		var err error
		if before, err = scrapeMetrics(addr); err != nil {
			return fmt.Errorf("scraping /metrics before the run: %v", err)
		}
	}

	results := make([]jobResult, jobs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	start := time.Now()
	for i := range specs {
		if i > 0 && spacing > 0 {
			time.Sleep(spacing)
		}
		sem <- struct{}{} // launch-side cap: arrival order is preserved
		wg.Add(1)
		go func(sp jobSpec) {
			defer wg.Done()
			defer func() { <-sem }()
			if sp.kernel == "sort" {
				results[sp.id] = runJob(addr, model, jobMem, save, sp)
			} else {
				results[sp.id] = runKernelJob(addr, model, jobMem, save, sp)
			}
		}(specs[i])
	}
	wg.Wait()
	makespan := time.Since(start)

	// Render the per-job table and the summary.
	failures := renderJobTable(os.Stdout, results)
	totalRecs := renderSummary(os.Stdout, results, makespan, conc)
	renderWireTable(os.Stdout, results)
	if mix != "" {
		renderClassTable(os.Stdout, results)
	}

	if clusterMode {
		// Coordinator cross-check: every job this run drove must have
		// reached state "done" on the coordinator's own books too.
		bad, err := checkClusterStats(addr, jobs)
		if err != nil {
			return fmt.Errorf("fetching coordinator /stats: %v", err)
		}
		failures += bad
	} else {
		// Cross-check the daemon's ledgers: every ext job's measured block
		// writes must equal its simulated AEM plan.
		extJobs, mismatches, err := checkLedgers(addr)
		if err != nil {
			return fmt.Errorf("fetching /stats: %v", err)
		}
		if mismatches > 0 {
			failures += mismatches
			fmt.Printf("ledger identity: %d of %d ext jobs DIVERGE from the simulated AEM plan\n", mismatches, extJobs)
		} else {
			fmt.Printf("ledger identity: OK (%d ext jobs, measured block writes == simulated AEM plan)\n", extJobs)
		}
	}

	// -metrics invariants: the job counter must have moved by exactly the
	// number of jobs this run drove, and the envelope gauges must drain
	// back to zero once the last response has been consumed.
	if metricsCheck {
		if err := checkMetrics(addr, before, jobs); err != nil {
			failures++
			fmt.Printf("metrics invariants: FAIL: %v\n", err)
		} else {
			fmt.Printf("metrics invariants: OK (jobs_total +%d, queue/grant/lease gauges drained to zero)\n", jobs)
		}
	}

	// The greppable figures scripts (and the CI throughput gate) parse.
	fmt.Printf("total wall: %dms\n", makespan.Milliseconds())
	fmt.Printf("throughput: %.3f Mrec/s (%d records)\n",
		float64(totalRecs)/makespan.Seconds()/1e6, totalRecs)
	if failures > 0 {
		return fmt.Errorf("%d job(s) failed verification", failures)
	}
	if len(kpool) == 1 && kpool[0] == "sort" {
		fmt.Println("all jobs verified: sorted, complete, checksums match")
	} else {
		fmt.Println("all jobs verified: sort streams checksum-complete, kernel responses match their references")
	}
	return nil
}

// shapePool resolves the -shapes list to shape indexes.
func shapePool(list string) ([]int, error) {
	var pool []int
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		idx := -1
		for i, s := range shapeNames {
			if s == name {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("unknown shape %q (have %s)", name, strings.Join(shapeNames, ", "))
		}
		pool = append(pool, idx)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("-shapes is empty")
	}
	return pool, nil
}

// genKey returns job sp's i-th key. Shapes follow the repository's
// test corpus: uniform random, pre-sorted, reversed, duplicate-heavy
// (16 distinct keys), and all-equal. Server-side payloads (line
// indexes) keep the records unique, as the engines require.
func genKey(sp jobSpec, r *xrand.SplitMix64, i int) uint64 {
	switch shapeNames[sp.shape] {
	case "sorted":
		return uint64(i)
	case "reversed":
		return uint64(sp.n - i)
	case "dups":
		return r.Next() % 16
	case "equal":
		return 42
	default:
		return r.Next() >> 1
	}
}

// checksum is the order-independent multiset digest both sides of the
// wire are folded into (the same construction cmd/asymsort's ext
// verifier uses).
type checksum struct {
	n        int
	sum, xor uint64
}

func (c *checksum) add(key uint64) {
	h := xrand.Mix(key)
	c.n++
	c.sum += h
	c.xor ^= h
}

// runJob posts one job and verifies the response stream.
func runJob(addr, model string, jobMem int, save string, sp jobSpec) jobResult {
	res := jobResult{spec: sp}
	inSumCh := make(chan checksum, 1)

	// The request body streams straight out of the generator — no
	// job-sized buffer on the client either. The generator goroutine is
	// the sole owner of the input dump file: it flushes and closes it
	// before signaling inSumCh, so no main-goroutine path (error or
	// not) ever touches the writer concurrently, and the dump is
	// complete on every exit — http.Post closes the pipe reader on all
	// of its failure paths, which unblocks the generator.
	pr, pw := io.Pipe()
	var saveInF *os.File
	if save != "" {
		f, err := os.Create(filepath.Join(save, fmt.Sprintf("job-%d-in.txt", sp.id)))
		if err != nil {
			res.err = err
			return res
		}
		saveInF = f
	}
	go func() {
		var inSum checksum
		var saveIn *bufio.Writer
		if saveInF != nil {
			saveIn = bufio.NewWriterSize(saveInF, 1<<20)
		}
		pw.CloseWithError(writeBody(pw, sp, &inSum, saveIn))
		if saveInF != nil {
			saveIn.Flush()
			saveInF.Close()
		}
		inSumCh <- inSum
	}()

	query := "/sort?model=" + model
	if jobMem > 0 {
		query += "&mem=" + strconv.Itoa(jobMem)
	}
	contentType := "text/plain"
	if sp.binary {
		contentType = wire.ContentType
	}
	req, err := http.NewRequest("POST", addr+query, pr)
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", contentType)
	if sp.prio != 0 {
		req.Header.Set("X-Asymsortd-Priority", strconv.Itoa(sp.prio))
	}
	if sp.deadline > 0 {
		req.Header.Set("X-Asymsortd-Deadline", sp.deadline.String())
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return res
	}
	res.model = resp.Header.Get("X-Asymsortd-Model")
	res.memRecs, _ = strconv.Atoi(resp.Header.Get("X-Asymsortd-Mem"))

	// Verify the stream: non-decreasing keys, exact count, and the
	// multiset checksum of what we sent.
	var outSum checksum
	var saveOut *bufio.Writer
	if save != "" {
		f, err := os.Create(filepath.Join(save, fmt.Sprintf("job-%d-out.txt", sp.id)))
		if err != nil {
			res.err = err
			return res
		}
		defer f.Close()
		saveOut = bufio.NewWriterSize(f, 1<<20)
		defer saveOut.Flush()
	}
	var prev uint64
	res.ttfb, res.err = readResponse(resp, sp.binary, false, start, func(recs []seq.Record) error {
		for _, rec := range recs {
			if outSum.n > 0 && rec.Key < prev {
				return fmt.Errorf("response not sorted at record %d: %d after %d", outSum.n, rec.Key, prev)
			}
			prev = rec.Key
			outSum.add(rec.Key)
			if saveOut != nil {
				saveOut.Write(wire.AppendLine(saveOut.AvailableBuffer(), rec, false))
			}
		}
		return nil
	})
	if res.err != nil {
		return res
	}
	res.wall = time.Since(start)
	// The generator has necessarily finished (the server only responds
	// after consuming the whole body), so this receive cannot block.
	inSum := <-inSumCh
	if outSum != inSum {
		res.err = fmt.Errorf("response is not a permutation of the input: sent %d records, got %d (checksum mismatch)",
			inSum.n, outSum.n)
	}
	return res
}

// writeBody streams job sp's generated keys to w: as text lines, or,
// when sp.binary, as a chunked frame of records whose payload is the
// key's index — exactly the pairing the server's text stager assigns,
// so the two dialects sort identical record multisets. Every key is
// folded into sum and, when save is non-nil, dumped there as a text
// line in either dialect, so dumps from a text run and a binary run of
// the same seed diff clean.
func writeBody(w io.Writer, sp jobSpec, sum *checksum, save *bufio.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	var fw *wire.Writer
	if sp.binary {
		var err error
		if fw, err = wire.NewWriter(bw, int64(sp.n)); err != nil {
			return err
		}
	}
	r := xrand.New(sp.seed)
	batch := make([]seq.Record, 0, 1<<13)
	var line []byte
	for i := 0; i < sp.n; i++ {
		rec := seq.Record{Key: genKey(sp, r, i), Val: uint64(i)}
		sum.add(rec.Key)
		if fw == nil || save != nil {
			line = wire.AppendLine(line[:0], rec, false)
		}
		if save != nil {
			save.Write(line)
		}
		if fw == nil {
			if _, err := bw.Write(line); err != nil {
				return err
			}
			continue
		}
		if batch = append(batch, rec); len(batch) == cap(batch) || i == sp.n-1 {
			if err := fw.WriteRecords(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if fw != nil {
		if err := fw.Close(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readResponse reads a response body of records — a record frame when
// binary, else text lines: bare keys, or "key value" lines when
// withVals — and hands them to fn in batches. It returns the time from
// start to the first record: to a frame's header, or to the first text
// line.
func readResponse(resp *http.Response, binary, withVals bool, start time.Time,
	fn func([]seq.Record) error) (time.Duration, error) {
	var rr interface {
		ReadRecords([]seq.Record) (int, error)
	}
	var ttfb time.Duration
	if binary {
		if got := resp.Header.Get("X-Asymsortd-Wire"); got != "binary" {
			return 0, fmt.Errorf("asked for a binary response, server answered wire %q", got)
		}
		fr, err := wire.NewReader(bufio.NewReaderSize(resp.Body, 1<<20))
		if err != nil {
			return 0, err
		}
		ttfb = time.Since(start) // the header just arrived
		rr = fr
	} else {
		rr = wire.NewTextReader(resp.Body, withVals)
	}
	buf := make([]seq.Record, 1<<13)
	// The first read asks for one record, so the first text line stamps
	// ttfb as soon as it arrives.
	for n := 1; ; n = len(buf) {
		m, err := rr.ReadRecords(buf[:n])
		if ttfb == 0 && m > 0 {
			ttfb = time.Since(start)
		}
		if ferr := fn(buf[:m]); ferr != nil {
			return ttfb, ferr
		}
		if err == io.EOF {
			return ttfb, nil
		}
		if err != nil {
			return ttfb, err
		}
	}
}

// renderJobTable prints the per-job table and returns the failure
// count.
func renderJobTable(w io.Writer, results []jobResult) int {
	header := []string{"job", "kernel", "shape", "n", "wire", "model", "memRecs", "wall ms", "ttfb ms", "Mrec/s", "status"}
	var rows [][]string
	failures := 0
	for _, r := range results {
		status := "ok"
		if r.err != nil {
			failures++
			status = "FAIL: " + r.err.Error()
		}
		rate := ""
		if r.wall > 0 {
			rate = fmt.Sprintf("%.3f", float64(r.spec.n)/r.wall.Seconds()/1e6)
		}
		rows = append(rows, []string{
			strconv.Itoa(r.spec.id), r.spec.kernel, shapeNames[r.spec.shape], strconv.Itoa(r.spec.n),
			r.spec.wireName(), r.model, strconv.Itoa(r.memRecs),
			strconv.FormatInt(r.wall.Milliseconds(), 10),
			strconv.FormatInt(r.ttfb.Milliseconds(), 10),
			rate, status,
		})
	}
	writeTable(w, header, rows)
	return failures
}

// renderSummary prints the aggregate line items and returns the total
// record count.
func renderSummary(w io.Writer, results []jobResult, makespan time.Duration, conc int) int {
	totalRecs := 0
	walls := make([]time.Duration, 0, len(results))
	for _, r := range results {
		if r.err == nil {
			totalRecs += r.spec.n
			walls = append(walls, r.wall)
		}
	}
	sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
	med, max := time.Duration(0), time.Duration(0)
	if len(walls) > 0 {
		med, max = walls[len(walls)/2], walls[len(walls)-1]
	}
	header := []string{"concurrency", "jobs", "records", "makespan ms", "agg Mrec/s", "p50 ms", "max ms"}
	rows := [][]string{{
		strconv.Itoa(conc), strconv.Itoa(len(results)), strconv.Itoa(totalRecs),
		strconv.FormatInt(makespan.Milliseconds(), 10),
		fmt.Sprintf("%.3f", float64(totalRecs)/makespan.Seconds()/1e6),
		strconv.FormatInt(med.Milliseconds(), 10),
		strconv.FormatInt(max.Milliseconds(), 10),
	}}
	fmt.Fprintln(w)
	writeTable(w, header, rows)
	return totalRecs
}

// renderWireTable prints per-wire-mode latency quantiles — the
// text-vs-binary comparison the frame dialect exists for.
func renderWireTable(w io.Writer, results []jobResult) {
	var order []string
	byMode := map[string][]jobResult{}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		m := r.spec.wireName()
		if _, ok := byMode[m]; !ok {
			order = append(order, m)
		}
		byMode[m] = append(byMode[m], r)
	}
	header := []string{"wire", "jobs", "records", "p50 wall ms", "p99 wall ms", "p50 ttfb ms", "p99 ttfb ms"}
	var rows [][]string
	for _, m := range order {
		rs := byMode[m]
		walls := make([]time.Duration, len(rs))
		ttfbs := make([]time.Duration, len(rs))
		recs := 0
		for i, r := range rs {
			walls[i], ttfbs[i] = r.wall, r.ttfb
			recs += r.spec.n
		}
		sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
		sort.Slice(ttfbs, func(a, b int) bool { return ttfbs[a] < ttfbs[b] })
		rows = append(rows, []string{
			m, strconv.Itoa(len(rs)), strconv.Itoa(recs),
			strconv.FormatInt(pct(walls, 50).Milliseconds(), 10),
			strconv.FormatInt(pct(walls, 99).Milliseconds(), 10),
			strconv.FormatInt(pct(ttfbs, 50).Milliseconds(), 10),
			strconv.FormatInt(pct(ttfbs, 99).Milliseconds(), 10),
		})
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w)
	writeTable(w, header, rows)
}

// renderClassTable prints the -mix per-class latency quantiles and the
// greppable "<class> p50/p99" lines the CI mixed-load gate parses —
// the small-job p99 under contention is the figure the adaptive broker
// exists to improve.
func renderClassTable(w io.Writer, results []jobResult) {
	byClass := map[string][]jobResult{}
	for _, r := range results {
		if r.err != nil || r.spec.class == "" {
			continue
		}
		byClass[r.spec.class] = append(byClass[r.spec.class], r)
	}
	header := []string{"class", "jobs", "records", "p50 wall ms", "p99 wall ms", "p50 ttfb ms", "p99 ttfb ms"}
	var rows [][]string
	var lines []string
	for _, cl := range []string{"small", "bulk"} {
		rs := byClass[cl]
		if len(rs) == 0 {
			continue
		}
		walls := make([]time.Duration, len(rs))
		ttfbs := make([]time.Duration, len(rs))
		recs := 0
		for i, r := range rs {
			walls[i], ttfbs[i] = r.wall, r.ttfb
			recs += r.spec.n
		}
		sort.Slice(walls, func(a, b int) bool { return walls[a] < walls[b] })
		sort.Slice(ttfbs, func(a, b int) bool { return ttfbs[a] < ttfbs[b] })
		rows = append(rows, []string{
			cl, strconv.Itoa(len(rs)), strconv.Itoa(recs),
			strconv.FormatInt(pct(walls, 50).Milliseconds(), 10),
			strconv.FormatInt(pct(walls, 99).Milliseconds(), 10),
			strconv.FormatInt(pct(ttfbs, 50).Milliseconds(), 10),
			strconv.FormatInt(pct(ttfbs, 99).Milliseconds(), 10),
		})
		lines = append(lines,
			fmt.Sprintf("%s p50: %dms", cl, pct(walls, 50).Milliseconds()),
			fmt.Sprintf("%s p99: %dms", cl, pct(walls, 99).Milliseconds()))
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w)
	writeTable(w, header, rows)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// pct is the nearest-rank percentile of an ascending-sorted sample.
func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted)+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func writeTable(w io.Writer, header []string, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
}

// statsPayload is the part of a daemon's /stats that asymload checks.
type statsPayload struct {
	Kernels map[string]serve.KernelLedger `json:"kernels"`
	Jobs    []serve.JobStats              `json:"jobs"`
}

// checkLedgers fetches /stats and compares every completed ext job's
// measured write ledger to its simulated plan — then re-checks the
// identity on the per-kernel aggregates, which survive job eviction.
func checkLedgers(addr string) (extJobs, mismatches int, err error) {
	resp, err := http.Get(addr + "/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var snap statsPayload
	if err := decodeJSON(resp.Body, &snap); err != nil {
		return 0, 0, err
	}
	for _, j := range snap.Jobs {
		if j.Model != "ext" || j.State != "done" {
			continue
		}
		extJobs++
		if j.Writes != j.PlanWrites {
			mismatches++
			fmt.Printf("  job %d (%s): measured %d block writes, simulated plan %d\n",
				j.ID, j.Kernel, j.Writes, j.PlanWrites)
		}
	}
	for name, agg := range snap.Kernels {
		if agg.Writes != agg.PlanWrites {
			mismatches++
			fmt.Printf("  kernel %s aggregate: measured %d block writes, simulated plan %d\n",
				name, agg.Writes, agg.PlanWrites)
		}
	}
	return extJobs, mismatches, nil
}

func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// clusterStats is a coordinator's /stats.
type clusterStats struct {
	Workers []cluster.WorkerStats `json:"workers"`
	Jobs    []cluster.JobStats    `json:"jobs"`
}

// checkClusterStats fetches the coordinator's /stats and verifies the
// run on its books: at least the jobs this mix drove are recorded, and
// every recorded job reached "done" — a coordinator that silently
// absorbed a failed scatter would show up here even if the client-side
// stream checks somehow passed. Prints the shard/retry/hedge summary.
// Like checkMetrics it polls briefly: the coordinator records a job
// done when its handler returns, a hair after the client sees the
// response body end.
func checkClusterStats(addr string, jobs int) (failures int, err error) {
	var snap clusterStats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		resp, err := http.Get(addr + "/stats")
		if err != nil {
			return 0, err
		}
		snap = clusterStats{}
		err = decodeJSON(resp.Body, &snap)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		live := false
		for _, j := range snap.Jobs {
			switch j.State {
			case "staging", "running", "streaming":
				live = true
			}
		}
		if !live || time.Now().After(deadline) {
			break
		}
	}
	done, shards, retries, hedges := 0, 0, 0, 0
	for _, j := range snap.Jobs {
		switch j.State {
		case "done":
			done++
			shards += j.Shards
			retries += j.Retries
			hedges += j.Hedges
		default:
			failures++
			fmt.Printf("  coordinator job %d: state %q %s\n", j.ID, j.State, j.Err)
		}
	}
	if done < jobs {
		failures++
		fmt.Printf("coordinator books: only %d of %d jobs recorded done\n", done, jobs)
	}
	healthy := 0
	for _, w := range snap.Workers {
		if w.Healthy {
			healthy++
		}
	}
	status := "OK"
	if failures > 0 {
		status = "FAIL"
	}
	fmt.Printf("cluster books: %s (%d jobs done over %d/%d healthy workers, %d shards, %d retries, %d hedges)\n",
		status, done, healthy, len(snap.Workers), shards, retries, hedges)
	return failures, nil
}

// scrapeMetrics fetches and parses the daemon's Prometheus exposition.
// Parsing through internal/obs's strict reader means every -metrics run
// also re-validates the exposition syntax end to end.
func scrapeMetrics(addr string) (*obs.Snapshot, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned status %d", resp.StatusCode)
	}
	return obs.ParseProm(resp.Body)
}

// checkMetrics enforces the load generator's two observability
// invariants against a before/after scrape pair:
//
//  1. asymsortd_jobs_total moved by exactly the number of jobs this run
//     drove — no job may finish uncounted, none counted twice;
//  2. after the drain, the envelope gauges (admission queue depth, live
//     leases, live granted bytes) are back to zero.
//
// The gauges are polled briefly: a job's lease is released when its
// handler returns, a hair after the client sees the response body end.
func checkMetrics(addr string, before *obs.Snapshot, jobs int) error {
	deadline := time.Now().Add(5 * time.Second)
	gauges := []string{"asymsortd_queue_depth", "asymsortd_leases", "asymsortd_grant_bytes"}
	for {
		after, err := scrapeMetrics(addr)
		if err != nil {
			return fmt.Errorf("scraping /metrics after the run: %v", err)
		}
		stuck := ""
		if delta := after.Sum("asymsortd_jobs_total") - before.Sum("asymsortd_jobs_total"); delta != float64(jobs) {
			stuck = fmt.Sprintf("asymsortd_jobs_total moved by %g, ran %d jobs", delta, jobs)
		}
		for _, g := range gauges {
			if stuck != "" {
				break
			}
			if v := after.Sum(g); v != 0 {
				stuck = fmt.Sprintf("%s = %g after drain (want 0)", g, v)
			}
		}
		if stuck == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s", stuck)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
