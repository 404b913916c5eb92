package main

// serve-mixed: an in-process asymsortd (serve.NewBroker + NewServer
// behind httptest) under two closed-loop clients. Jobs follow a fixed
// 16-job pattern — 12 small sorts (n in [20k, 60k], native path), 3 bulk
// sorts and 1 bulk semisort over seq.FewDistinct keys (n in [1M, 2M],
// mem=131072, external engine with the post-pass hook for semisort),
// text and binary in equal shares. Two patterns make one cycle, which
// sends every body generated during set-up exactly once; windows end on
// a cycle boundary, so every seed and every window runs the same sizes
// in the same numbers and only the keys change.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"asymsort/internal/kernel"
	"asymsort/internal/obs"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
)

// clients is the closed-loop client count of the served workloads: two
// callers that each wait for their reply, sized to a 2-core machine.
const clients = 2

// svcJob is one scheduled request.
type svcJob struct {
	class  string // "small" or "bulk"
	kernel string
	d      dialect
	b      *body
	exp    *expect
	path   string // request path and query
}

// daemon is one in-process asymsortd.
type daemon struct {
	broker *serve.Broker
	srv    *serve.Server
	hs     *httptest.Server
	spill  string
	trace  string
}

func startDaemon(envelope, block, k int, spill, traceDir string) (*daemon, error) {
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return nil, err
	}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return nil, err
		}
	}
	b, err := serve.NewBroker(serve.BrokerConfig{Mem: envelope})
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Broker: b, Block: block, Omega: omegaPin, K: k, TmpDir: spill, TraceDir: traceDir,
	})
	if err != nil {
		b.Close()
		return nil, err
	}
	return &daemon{broker: b, srv: srv, hs: httptest.NewServer(srv.Handler()), spill: spill, trace: traceDir}, nil
}

// stop shuts the daemon down and checks it left nothing behind: the
// envelope whole, no spill or job files.
func (d *daemon) stop() error {
	d.hs.Close()
	bs := d.broker.Stats()
	var err error
	if bs.FreeMem != bs.TotalMem || len(bs.Running) > 0 {
		err = fmt.Errorf("envelope not whole after the run: %d of %d records free, %d leases", bs.FreeMem, bs.TotalMem, len(bs.Running))
	}
	_ = d.srv.Close() // persists the ω meter into the spill dir, removed with it
	d.broker.Close()
	if lerr := checkLeftovers(d.spill); err == nil {
		err = lerr
	}
	return err
}

// daemonStats is the part of a daemon's GET /stats the harness reads.
type daemonStats struct {
	Tuning struct {
		ReadNS  float64 `json:"read_ns_per_block"`
		WriteNS float64 `json:"write_ns_per_block"`
		Omega   float64 `json:"omega_measured"`
	} `json:"tuning"`
	Kernels map[string]serve.KernelLedger `json:"kernels"`
	Jobs    []serve.JobStats              `json:"jobs"`
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// ledger sums the per-kernel aggregate block ledgers.
func (s *daemonStats) ledger() (reads, writes uint64) {
	for _, k := range s.Kernels {
		reads += k.Reads
		writes += k.Writes
	}
	return reads, writes
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
}

type serveEnv struct {
	sc     *scale
	dir    string
	d      *daemon
	client *http.Client
	sched  []*svcJob
	// firstID is the daemon's first job id of the measured window.
	firstID int
}

func serveSetup(o *options, sc *scale, dir, traceDir string) (env, error) {
	bodies := filepath.Join(dir, "bodies")
	if err := os.MkdirAll(bodies, 0o755); err != nil {
		return nil, err
	}
	e := &serveEnv{sc: sc, dir: dir, client: newClient()}
	pools := map[string][]*svcJob{}
	semi, _ := kernel.Get("semisort")
	for _, d := range []dialect{text, chunked} {
		for _, p := range []struct {
			class, kernel string
			count, lo, hi int
			sh            shape
			path          string
		}{
			{"small", "sort", smallPerCycle, sc.smallLo, sc.smallHi, uniform, "/sort"},
			{"bulk", "sort", bulkPerCycle, sc.bulkLo, sc.bulkHi, uniform, fmt.Sprintf("/sort?mem=%d", sc.bulkMem)},
			{"bulk", "semisort", semiPerCycle, sc.bulkLo, sc.bulkHi, fewDistinct, fmt.Sprintf("/v1/semisort?mem=%d", sc.bulkMem)},
		} {
			key := p.class + "-" + p.kernel + "-" + d.String()
			for i := range p.count {
				n := sizeAt(p.lo, p.hi, i, p.count)
				b, err := writeBody(bodyPath(bodies, key, i), n, p.sh, d, subSeed(o.seed, key, i), p.kernel != "sort")
				if err != nil {
					return nil, err
				}
				exp := &expect{kernel: p.kernel, binary: d.binary(), n: n, sum: b.sum, ledger: p.class == "bulk"}
				if p.kernel != "sort" {
					exp.ref = semi.Ref(b.input, kernel.Params{})
					b.input = nil
				}
				pools[key] = append(pools[key], &svcJob{class: p.class, kernel: p.kernel, d: d, b: b, exp: exp, path: p.path})
			}
		}
	}
	e.sched = serveSchedule(pools)

	var err error
	dt := ""
	if traceDir != "" {
		dt = filepath.Join(traceDir, "daemon")
	}
	if e.d, err = startDaemon(sc.svcEnvelope, sc.svcBlock, 2, filepath.Join(dir, "spill"), dt); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, j := range []*svcJob{pools["small-sort-text"][0], pools["bulk-sort-binary"][0]} {
		if o := postJob(e.client, e.d.hs.URL, j, nil, &buf); o.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s %s job: %w", j.class, j.d, o.err)
		}
	}
	return e, nil
}

// Bodies per dialect in one cycle of serve-mixed's schedule, which is
// how many serveSetup generates: each runs exactly once per cycle.
const (
	smallPerCycle = 12
	bulkPerCycle  = 3
	semiPerCycle  = 1
)

// serveSchedule lays out one cycle: two 16-job patterns with a bulk job
// at every fourth slot (sort text, sort binary, sort in the dialect that
// alternates by pattern, semisort in the other) and small sorts
// elsewhere, alternating dialect. It takes every pool body once.
func serveSchedule(pools map[string][]*svcJob) []*svcJob {
	next := map[string]int{}
	take := func(key string) *svcJob {
		j := pools[key][next[key]]
		next[key]++
		return j
	}
	var sched []*svcJob
	small := 0
	for blk := range 2 {
		for pos := range 16 {
			if pos%4 != 3 {
				d := "text"
				if small%2 == 1 {
					d = "binary"
				}
				small++
				sched = append(sched, take("small-sort-"+d))
				continue
			}
			first, second := "text", "binary"
			if blk%2 == 1 {
				first, second = second, first
			}
			switch pos / 4 {
			case 0:
				sched = append(sched, take("bulk-sort-text"))
			case 1:
				sched = append(sched, take("bulk-sort-binary"))
			case 2:
				sched = append(sched, take("bulk-sort-"+first))
			default:
				sched = append(sched, take("bulk-semisort-"+second))
			}
		}
	}
	return sched
}

// postJob sends one job to the server at base: latency runs from the
// request start to the last response byte; verification follows.
func postJob(c *http.Client, base string, j *svcJob, parent *obs.Span, buf *bytes.Buffer) op {
	o := op{class: j.class, wire: j.d.String(), kernel: j.kernel, recs: j.b.n, bytes: j.b.size}
	f, err := os.Open(j.b.path)
	if err != nil {
		o.err = err
		return o
	}
	req, err := http.NewRequest("POST", base+j.path, f)
	if err != nil {
		f.Close()
		o.err = err
		return o
	}
	req.ContentLength = j.b.size
	req.Header.Set("Content-Type", "text/plain")
	if j.d.binary() {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	}
	sp := parent.Child("job")
	sp.Set(obs.Attr{Key: "recs", Val: int64(j.b.n)}, obs.Attr{Key: "bytes", Val: j.b.size})
	buf.Reset()
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		sp.End()
		o.err = err
		return o
	}
	o.ttfb = time.Since(start)
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.wall = time.Since(start)
	sp.End()
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(buf.Bytes()[:min(buf.Len(), 256)])))
		return o
	}
	o.jobID, _ = strconv.Atoi(resp.Header.Get("X-Asymsortd-Job"))
	o.writes, o.err = verifyResponse(j.exp, resp.Header, buf.Bytes())
	return o
}

// closedLoop runs clients goroutines, each sending its next scheduled
// job once its previous reply is in. The schedule repeats; issuing stops
// at the first pass through its start after d has elapsed, so every
// window runs whole schedules — the same job mix whatever the machine's
// speed.
func closedLoop(d time.Duration, sched []*svcJob, do func(j *svcJob, buf *bytes.Buffer) op) ([]op, time.Duration) {
	var mu sync.Mutex
	var ops []op
	next, stopped := 0, false
	start := time.Now()
	take := func() (*svcJob, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !stopped && next%len(sched) == 0 && time.Since(start) >= d {
			stopped = true
		}
		if stopped {
			return nil, false
		}
		j := sched[next%len(sched)]
		next++
		return j, true
	}
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j, ok := take(); ok; j, ok = take() {
				o := do(j, &buf)
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, time.Since(start)
}

func (e *serveEnv) stats() (*daemonStats, error) {
	var s daemonStats
	return &s, getJSON(e.client, e.d.hs.URL+"/stats", &s)
}

func (e *serveEnv) run(d time.Duration, span *obs.Span) (*window, error) {
	before, err := e.stats()
	if err != nil {
		return nil, err
	}
	e.firstID = len(before.Jobs)
	w := &window{}
	w.ops, w.makespan = closedLoop(d, e.sched, func(j *svcJob, buf *bytes.Buffer) op {
		return postJob(e.client, e.d.hs.URL, j, span, buf)
	})
	after, err := e.stats()
	if err != nil {
		return nil, err
	}
	r0, w0 := before.ledger()
	r1, w1 := after.ledger()
	w.reads, w.writes = r1-r0, w1-w0
	var hdr uint64
	for _, o := range w.ops {
		hdr += o.writes
	}
	if hdr != w.writes {
		w.checks = append(w.checks, fmt.Errorf("response headers carry %d block writes, /stats ledgers %d", hdr, w.writes))
	}
	return w, nil
}

func (e *serveEnv) layers(w *window) (map[string]float64, map[string]float64, error) {
	st, err := e.stats()
	if err != nil {
		return nil, nil, err
	}
	recs := 0
	for _, o := range w.ops {
		recs += o.recs
	}
	core, err := servedExtLayers([]servedDaemon{{st, e.firstID, e.d.trace}}, w.reads, recs)
	if err != nil {
		return nil, nil, err
	}
	// /stats has no wire column; the X-Asymsortd-Job header each
	// response carried ties a job to its class and dialect.
	kind := map[int]string{}
	for _, o := range w.ops {
		if o.err == nil {
			kind[o.jobID] = o.class + "_" + o.wire
		}
	}
	extra := map[string]float64{}
	phases := map[string][]float64{}
	native, jobs := 0, 0
	for _, j := range st.Jobs {
		k, ok := kind[j.ID]
		if j.ID < e.firstID || !ok {
			continue
		}
		jobs++
		if j.Model == "native" {
			native++
		}
		// The job's own spans time its phases to the microsecond, where
		// /stats rounds them to milliseconds.
		walls, err := spanWalls(filepath.Join(e.d.trace, fmt.Sprintf("job-%d.trace.jsonl", j.ID)))
		if err != nil {
			return nil, nil, err
		}
		for _, ph := range []string{"stage", "queue", "run", "stream"} {
			phases[k+"."+ph] = append(phases[k+"."+ph], ms(walls[ph]))
		}
	}
	for k, v := range phases {
		extra["serve."+k+"_ms"] = median(v)
	}
	if jobs > 0 {
		extra["serve.native_frac"] = float64(native) / float64(jobs)
	}
	ttfb := map[string][]float64{}
	lat := map[string][]float64{}
	for _, o := range w.ops {
		if o.err == nil {
			ttfb[o.class] = append(ttfb[o.class], ms(o.ttfb))
			lat[o.class+"_"+o.wire] = append(lat[o.class+"_"+o.wire], ms(o.wall))
		}
	}
	for c, v := range ttfb {
		extra["serve."+c+".ttfb_ms"] = median(v)
	}
	for c, v := range lat {
		extra["serve."+c+".p50_ms"] = median(v)
	}
	return core, extra, nil
}

func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	err := e.d.stop()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// servedDaemon is one daemon's view of a window: its /stats after the
// window, the window's first job id, and its trace directory.
type servedDaemon struct {
	st      *daemonStats
	firstID int
	trace   string
}

// servedExtLayers derives the extmem.* per-layer metrics from the
// external jobs daemons ran in a traced window: phase walls from each
// job's form/merge spans, levels and ledgers from /stats, device walls
// from each daemon's ω meter.
func servedExtLayers(ds []servedDaemon, reads uint64, recs int) (map[string]float64, error) {
	var s extSamples
	for _, d := range ds {
		s.tRead = append(s.tRead, d.st.Tuning.ReadNS)
		s.tWrite = append(s.tWrite, d.st.Tuning.WriteNS)
		s.omega = append(s.omega, d.st.Tuning.Omega)
		for _, j := range d.st.Jobs {
			if j.ID < d.firstID || j.Model != "ext" {
				continue
			}
			s.levels = append(s.levels, float64(j.Levels))
			p := (float64(j.Reads)*d.st.Tuning.ReadNS + float64(j.Writes)*d.st.Tuning.WriteNS) / 1e9
			s.pred = append(s.pred, p)
			if p > 0 {
				s.gap = append(s.gap, float64(j.SortMS)/1e3/p)
			}
			walls, err := spanWalls(filepath.Join(d.trace, fmt.Sprintf("job-%d.trace.jsonl", j.ID)))
			if err != nil {
				return nil, err
			}
			s.form = append(s.form, walls["form"].Seconds())
			s.merge = append(s.merge, walls["merge"].Seconds())
		}
	}
	return s.metrics(reads, recs), nil
}

// spanWalls sums span durations by name in one trace file.
func spanWalls(path string) (map[string]time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	_, spans, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.DurUS) * time.Microsecond
	}
	return out, nil
}
