package serve

// The HTTP kernel job engine: admission, model selection, and
// streaming IO for one kernel job per request. Every kernel in the
// internal/kernel registry is served through one staging → leasing →
// run → streaming pipeline; /sort is a byte-identical alias for the
// sort kernel, kept for existing clients.
//
//	POST /v1/{kernel} body: one decimal uint64 key per line (chunked ok),
//	                  or a binary record frame when Content-Type is
//	                  application/x-asymsort-records (internal/wire)
//	                  query: model=auto|ext|native (default auto)
//	                         mem=<records> (budget hint; default derived)
//	                         kernel params: buckets= (histogram),
//	                         k= (top-k), left= (merge-join; the first
//	                         left records of the body are the left
//	                         relation) — each also accepted as an
//	                         X-Asymsortd-{Buckets,K,Left} header
//	  → 200, body: the result records as "key value" lines ("key" alone
//	    for sort), or a binary record frame — the response dialect
//	    mirrors the request's unless the Accept header names one
//	    explicitly
//	    headers: X-Asymsortd-Job, X-Asymsortd-Kernel, X-Asymsortd-Out,
//	    X-Asymsortd-Model, X-Asymsortd-Mem, X-Asymsortd-Wire, and for
//	    ext jobs X-Asymsortd-Writes / X-Asymsortd-Plan-Writes (the
//	    measured and simulated ledgers)
//	POST /sort        the sort kernel under its historical route:
//	    responses are byte-identical to the pre-registry daemon (text
//	    output is bare keys; no X-Asymsortd-Kernel / X-Asymsortd-Out
//	    headers)
//	GET  /stats       → JSON: broker snapshot + per-job ledgers +
//	    per-kernel aggregate ledgers (aggregates survive job eviction)
//	GET  /healthz     → JSON: status (ok|draining), uptime, live leases
//
// Unknown kernels and paths get a JSON 404; known paths with the wrong
// method get a JSON 405 with an Allow header.
//
// A job's life is runJob's four steps. Its query is validated first
// (ParseJobQuery, in this file), so a bad hint is a 400 before any body
// byte is staged. stage spools the body through the wire codec
// (codec.go) to a binary record file, which fixes n, and validates the
// kernel params against n. admit Acquires a lease (queueing under
// backpressure) and picks the model from n versus the granted budget:
// native in-RAM when 2n records fit the grant, the external-memory
// composition otherwise. run executes it, with Mem = the grant, the
// broker's split pool, and the lease itself wired into extmem.Config
// so the broker can rebalance or cancel the job while it runs. stream
// sends the result. Ext jobs carry the kernel's write-plan identity
// out in headers: X-Asymsortd-Writes == X-Asymsortd-Plan-Writes for
// every kernel, not just sort. Client disconnects cancel the lease;
// the engine aborts at the next block boundary and removes its spill
// files, and the other jobs' byte-identical outputs are unaffected
// (the fault-injection tests pin this).

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"asymsort/internal/cost"
	"asymsort/internal/extmem"
	"asymsort/internal/kernel"
	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/wire"
)

// ServerConfig parameterizes the job engine.
type ServerConfig struct {
	// Broker is the machine envelope jobs lease from. Required.
	Broker *Broker
	// Block is the device block size in records for ext jobs (the
	// model's B; default 64).
	Block int
	// Omega is the ω prior: the configured device write/read cost
	// ratio, blended with the online estimator's measurement
	// (extmem.OmegaMeter) by observation confidence when the Appendix A
	// rule picks K per job. 0 means fully measured — no prior, the
	// engine trusts the meter alone (falling back to ω = 1 while the
	// meter is cold).
	Omega float64
	// K is the ext engine's read multiplier (0 = choose from Omega).
	K int
	// TmpDir is where job staging and spill files live; each job gets
	// its own subdirectory, removed when the job ends. Empty means
	// os.TempDir().
	TmpDir string
	// Metrics, when non-nil, is the registry the engine publishes job,
	// block-IO, and HTTP metrics to, and the one GET /metrics renders.
	// Pass the same registry to the Broker so one scrape covers the
	// whole process. Nil wires a private registry: instrumentation still
	// runs (and /metrics still serves), it just shares nothing.
	Metrics *obs.Registry
	// TraceDir, when non-empty, enables per-job trace export: each job's
	// span tree is written there as job-<id>.trace.jsonl (one span per
	// line) and job-<id>.chrome.json (Chrome trace-event format, loadable
	// at ui.perfetto.dev). Empty disables tracing entirely.
	TraceDir string
}

// Server is the HTTP job engine.
type Server struct {
	cfg      ServerConfig
	start    time.Time
	build    obs.BuildInfo
	draining atomic.Bool
	reg      *obs.Registry
	obsm     serverMetrics
	meter    *extmem.OmegaMeter
	jobs     Jobs[JobStats, *JobStats]
	// agg is guarded by the job table's lock: jobs fold into it as they
	// close, so eviction loses no ledger.
	agg map[string]KernelLedger
}

// serverMetrics holds the engine's metric family handles, resolved once
// at construction so the per-request path only touches series.
type serverMetrics struct {
	jobs      obs.Vec // {kernel,model,outcome}
	queueWait obs.Vec // histogram, no labels
	blkReads  obs.Vec // {level}
	blkWrites obs.Vec // {level}
	blkReadB  obs.Vec // {level}
	blkWriteB obs.Vec // {level}
	httpReqs  obs.Vec // {route,wire,code}
	httpDur   obs.Vec // histogram {route}
	httpReqB  obs.Vec // {route,wire}
	httpRespB obs.Vec // {route,wire}
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		jobs: reg.Counter("asymsortd_jobs_total",
			"Jobs finished, by kernel, execution model, and outcome.",
			"kernel", "model", "outcome"),
		queueWait: reg.Histogram("asymsortd_queue_wait_seconds",
			"Admission-queue wait per job.", obs.DurationBuckets),
		blkReads: reg.Counter("asymsortd_block_reads_total",
			"Device block reads charged by ext jobs, by engine level (form, merge1.., scan).",
			"level"),
		blkWrites: reg.Counter("asymsortd_block_writes_total",
			"Device block writes charged by ext jobs, by engine level.",
			"level"),
		blkReadB: reg.Counter("asymsortd_block_read_bytes_total",
			"Bytes of device block reads charged by ext jobs, by engine level.",
			"level"),
		blkWriteB: reg.Counter("asymsortd_block_write_bytes_total",
			"Bytes of device block writes charged by ext jobs, by engine level.",
			"level"),
		httpReqs: reg.Counter("asymsortd_http_requests_total",
			"HTTP requests served, by route, wire dialect, and status code.",
			"route", "wire", "code"),
		httpDur: reg.Histogram("asymsortd_http_request_seconds",
			"HTTP request duration by route.", obs.DurationBuckets, "route"),
		httpReqB: reg.Counter("asymsortd_http_request_bytes_total",
			"Request body bytes read, by route and wire dialect.",
			"route", "wire"),
		httpRespB: reg.Counter("asymsortd_http_response_bytes_total",
			"Response body bytes written, by route and wire dialect.",
			"route", "wire"),
	}
}

// JobStats is one job's ledger, served on /stats. Its state runs
// staging → queued → running → streaming → done|failed|canceled.
type JobStats struct {
	Job
	Kernel string `json:"kernel"`
	Model  string `json:"model,omitempty"`
	N      int    `json:"n"`
	OutN   int    `json:"out_n,omitempty"`
	// MemGrant is the admission-time grant in records — the ext job's
	// M, which fixes its merge plan and write ledger.
	MemGrant int `json:"mem_grant,omitempty"`
	Procs    int `json:"procs,omitempty"`
	// Reads/Writes are the ext composition's measured block-IO ledger;
	// PlanWrites is its predicted block-write count for the same
	// (n, M, B, k) — Writes == PlanWrites is the served extension of
	// the repository's engine-vs-simulator identity, now held
	// per kernel.
	Reads      uint64 `json:"reads,omitempty"`
	Writes     uint64 `json:"writes,omitempty"`
	PlanWrites uint64 `json:"plan_writes,omitempty"`
	Levels     int    `json:"levels,omitempty"`
	K          int    `json:"k,omitempty"`
	// Omega is the effective ω the ext job was planned with: the
	// measured estimate blended with the configured prior at admission
	// time. Together with MemGrant and the block size it reproduces the
	// job's K via extmem.ChooseK.
	Omega float64 `json:"omega,omitempty"`
	// Priority is the job's clamped admission class; DeadlineMS its
	// relative latency target at arrival (0 = none).
	Priority   int   `json:"priority,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	QueueMS    int64 `json:"queue_ms"`
	// StageMS/SortMS/StreamMS are the finished phase walls: request-body
	// staging, the kernel run, and response stream-out. With QueueMS
	// they are the per-job phase breakdown beside the ledgers.
	StageMS  int64 `json:"stage_ms"`
	SortMS   int64 `json:"sort_ms"`
	StreamMS int64 `json:"stream_ms"`
	// PhaseMS is only set on live jobs in /stats responses: elapsed wall
	// time in the current State (for "queued" it is the live queue
	// wait). Zero on finished jobs.
	PhaseMS int64 `json:"phase_ms,omitempty"`

	// phaseStart is when the job entered its current State; unexported,
	// so it never serializes. handleStats derives PhaseMS from it.
	phaseStart time.Time
}

// KernelLedger aggregates finished jobs per kernel; it is folded at
// job completion, so /stats keeps whole-lifetime per-kernel ledgers
// even after individual jobs are evicted.
type KernelLedger struct {
	Jobs       int    `json:"jobs"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Canceled   int    `json:"canceled"`
	Reads      uint64 `json:"reads"`
	Writes     uint64 `json:"writes"`
	PlanWrites uint64 `json:"plan_writes"`
}

// NewServer builds a job engine over the broker.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Broker == nil {
		return nil, fmt.Errorf("serve: server needs a broker")
	}
	if cfg.Block < 1 {
		cfg.Block = 64
	}
	if cfg.Omega < 0 {
		cfg.Omega = 0 // fully measured, like an explicit 0
	}
	if cfg.TmpDir == "" {
		cfg.TmpDir = os.TempDir()
	}
	if min := cfg.Broker.Stats().MinLease; min < cfg.Block {
		return nil, fmt.Errorf("serve: broker MinLease %d records is below one %d-record block — no grant could run the ext engine", min, cfg.Block)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg: cfg, start: time.Now(), build: obs.ReadBuildInfo(),
		reg: reg, obsm: newServerMetrics(reg),
		meter: extmem.NewOmegaMeter(cfg.TmpDir), agg: make(map[string]KernelLedger),
	}
	reg.GaugeFunc("asymsortd_uptime_seconds",
		"Seconds since the job engine started.",
		func() float64 { return time.Since(s.start).Seconds() })
	// The asymsortd_tuning_* family: the online ω estimator feeding
	// per-job k selection (see extmem.OmegaMeter and docs/OPERATIONS.md).
	meter, prior := s.meter, cfg.Omega
	reg.GaugeFunc("asymsortd_tuning_omega_measured",
		"Measured device write/read block-cost ratio (0 while the estimator is cold).",
		func() float64 { w, _ := meter.Measured(); return w })
	reg.GaugeFunc("asymsortd_tuning_omega_effective",
		"Effective omega new ext jobs are planned with: measurement blended with the configured prior.",
		func() float64 { return meter.Effective(prior) })
	reg.GaugeFunc("asymsortd_tuning_omega_prior",
		"Configured omega prior (the -omega flag; 0 = fully measured).",
		func() float64 { return prior })
	reg.GaugeFunc("asymsortd_tuning_read_ns_per_block",
		"EWMA wall nanoseconds per device block read.",
		func() float64 { return meter.Snapshot().ReadNSPerBlock })
	reg.GaugeFunc("asymsortd_tuning_write_ns_per_block",
		"EWMA wall nanoseconds per device block write.",
		func() float64 { return meter.Snapshot().WriteNSPerBlock })
	reg.GaugeFunc("asymsortd_tuning_observed_read_blocks",
		"Device blocks whose read wall cost has fed the omega estimator.",
		func() float64 { return float64(meter.Snapshot().ReadBlocks) })
	reg.GaugeFunc("asymsortd_tuning_observed_write_blocks",
		"Device blocks whose write wall cost has fed the omega estimator.",
		func() float64 { return float64(meter.Snapshot().WriteBlocks) })
	return s, nil
}

// Meter returns the server's ω estimator (tests prime it; the daemon
// persists it on shutdown via Close).
func (s *Server) Meter() *extmem.OmegaMeter { return s.meter }

// Close persists the ω estimator's state so the next daemon on this
// tmpdir warms up from it. The HTTP side needs no teardown.
func (s *Server) Close() error { return s.meter.Save() }

// SetDraining flips /healthz to "draining" — called by the daemon when
// it stops accepting connections and waits out running jobs, so load
// balancers and probes see the shutdown before the listener closes.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sort", func(w http.ResponseWriter, r *http.Request) {
		s.handleKernel(w, r, "sort", true)
	})
	mux.HandleFunc("POST /v1/{kernel}", func(w http.ResponseWriter, r *http.Request) {
		s.handleKernel(w, r, r.PathValue("kernel"), false)
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.reg)
	// Known paths, wrong method → 405 with Allow; everything else → 404.
	mux.HandleFunc("/sort", MethodNotAllowed("POST"))
	mux.HandleFunc("/v1/{kernel}", MethodNotAllowed("POST"))
	mux.HandleFunc("/stats", MethodNotAllowed("GET"))
	mux.HandleFunc("/healthz", MethodNotAllowed("GET"))
	mux.HandleFunc("/metrics", MethodNotAllowed("GET"))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		JSONError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return s.instrument(mux)
}

// routeLabel collapses request paths to a bounded route set, so the
// HTTP metric cardinality cannot grow with traffic.
func routeLabel(p string) string {
	switch {
	case p == "/sort", p == "/stats", p == "/healthz", p == "/metrics":
		return p
	case strings.HasPrefix(p, "/v1/"):
		return "/v1/{kernel}"
	}
	return "other"
}

// countingReader counts request-body bytes through to the handler.
type countingReader struct {
	rc io.ReadCloser
	n  atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// countingWriter counts response bytes and captures the status code.
type countingWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
	n     int64
}

func (c *countingWriter) WriteHeader(code int) {
	if !c.wrote {
		c.code, c.wrote = code, true
	}
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if !c.wrote {
		c.code, c.wrote = http.StatusOK, true
	}
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// instrument wraps the mux with the HTTP request/response metrics:
// count, duration, and body bytes by route and wire dialect.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		start := time.Now()
		cr := &countingReader{rc: r.Body}
		r.Body = cr
		cw := &countingWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(cw, r)
		wireName := cw.Header().Get("X-Asymsortd-Wire")
		if wireName == "" {
			wireName = "none"
		}
		s.obsm.httpReqs.With(route, wireName, strconv.Itoa(cw.code)).Inc()
		s.obsm.httpDur.With(route).Observe(time.Since(start).Seconds())
		s.obsm.httpReqB.With(route, wireName).Add(float64(cr.n.Load()))
		s.obsm.httpRespB.With(route, wireName).Add(float64(cw.n))
	})
}

// --- the request path's shared decisions ---
//
// The cluster coordinator serves /sort through the functions below and
// StageRequest (codec.go), so a coordinator accepts, rejects and
// answers exactly what a worker would.

// JobQuery is a job request's validated execution hints and admission
// class.
type JobQuery struct {
	Model    string        // auto (the default), ext or native
	Mem      int           // budget hint in records; 0 derives it from n
	Priority int           // higher admits sooner; the broker clamps it
	Deadline time.Duration // relative latency target, resolved at arrival

	hasDeadline bool   // set by any deadline, deadline=0 included
	fwd         string // the accepted values, encoded for Forward
}

// ParseJobQuery validates the job query: model=auto|ext|native,
// mem=<records>, priority=<int> and deadline=, a Go duration ("750ms",
// "2s") or integer milliseconds. Priority and deadline may instead
// arrive as X-Asymsortd-Priority and X-Asymsortd-Deadline headers; the
// query wins when both are present.
func ParseJobQuery(r *http.Request) (JobQuery, error) {
	q := JobQuery{Model: "auto"}
	query, fwd := r.URL.Query(), url.Values{}
	get := func(name, header string) string {
		v := query.Get(name)
		if v == "" && header != "" {
			v = r.Header.Get(header)
		}
		if v != "" {
			fwd.Set(name, v)
		}
		return v
	}
	switch v := get("model", ""); v {
	case "", "auto":
	case "ext", "native":
		q.Model = v
	default:
		return q, fmt.Errorf("unknown model %q", v)
	}
	if v := get("mem", ""); v != "" {
		mem, err := strconv.Atoi(v)
		if err != nil || mem < 1 {
			return q, fmt.Errorf("bad mem=%q", v)
		}
		q.Mem = mem
	}
	if v := get("priority", "X-Asymsortd-Priority"); v != "" {
		prio, err := strconv.Atoi(v)
		if err != nil {
			return q, fmt.Errorf("bad priority=%q", v)
		}
		q.Priority = prio
	}
	if v := get("deadline", "X-Asymsortd-Deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			ms, merr := strconv.ParseInt(v, 10, 64)
			if merr != nil || ms < 0 {
				return q, fmt.Errorf("bad deadline=%q (want a duration like 750ms or integer milliseconds)", v)
			}
			if ms > math.MaxInt64/int64(time.Millisecond) {
				return q, fmt.Errorf("bad deadline=%q (too large)", v)
			}
			d = time.Duration(ms) * time.Millisecond
		}
		if d < 0 {
			return q, fmt.Errorf("bad deadline=%q (negative)", v)
		}
		q.Deadline, q.hasDeadline = d, true
	}
	q.fwd = fwd.Encode()
	return q, nil
}

// Forward returns the accepted values verbatim as a query string ("" if
// there are none). A coordinator relays it to every shard, so a
// latency-class cluster job is a latency-class job on every worker's
// broker too; each worker resolves the deadline against the shard's own
// arrival, the clock the shard actually races.
func (q JobQuery) Forward() string { return q.fwd }

// kernelParams extracts the kernel parameters from the query (or the
// matching X-Asymsortd-* header when the query is silent).
func kernelParams(r *http.Request) (kernel.Params, error) {
	var p kernel.Params
	q := r.URL.Query()
	for _, f := range []struct {
		query, header string
		dst           *int
	}{
		{"buckets", "X-Asymsortd-Buckets", &p.Buckets},
		{"k", "X-Asymsortd-K", &p.K},
		{"left", "X-Asymsortd-Left", &p.LeftN},
	} {
		v := q.Get(f.query)
		if v == "" {
			v = r.Header.Get(f.header)
		}
		if v == "" {
			continue
		}
		i, err := strconv.Atoi(v)
		if err != nil || i < 0 {
			return p, fmt.Errorf("bad %s=%q", f.query, v)
		}
		*f.dst = i
	}
	return p, nil
}

// Fail answers a job request with a plain-text error status and returns
// the message as the job's error. It only works before the first body
// byte; after that, aborting the chunked body is the only signal left.
func Fail(w http.ResponseWriter, code int, format string, args ...any) error {
	err := fmt.Errorf(format, args...)
	http.Error(w, err.Error(), code)
	return err
}

// JSONError writes a JSON {"error": ...} body with the given status.
func JSONError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// MethodNotAllowed rejects with a JSON 405 naming the allowed method.
func MethodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		JSONError(w, http.StatusMethodNotAllowed, "%s not allowed on %s (use %s)", r.Method, r.URL.Path, allow)
	}
}

// ExportTrace writes a finished job's trace into dir as
// job-<id>.trace.jsonl and job-<id>.chrome.json. A nil trace or an
// empty dir writes nothing. Export failures never fail the job; a
// missing file is the diagnostic.
func ExportTrace(dir string, id int, tr *obs.Trace) {
	if tr == nil || dir == "" {
		return
	}
	writeFile := func(name string, emit func(io.Writer) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return
		}
		emit(f)
		f.Close()
	}
	writeFile(fmt.Sprintf("job-%d.trace.jsonl", id), tr.WriteJSONL)
	writeFile(fmt.Sprintf("job-%d.chrome.json", id), tr.WriteChrome)
}

// tuningStats is the /stats view of the online ω estimator: the raw
// measurement, the configured prior, and the blend jobs actually run
// with right now.
type tuningStats struct {
	OmegaPrior     float64 `json:"omega_prior"`
	OmegaMeasured  float64 `json:"omega_measured,omitempty"`
	OmegaEffective float64 `json:"omega_effective"`
	MeasuredOK     bool    `json:"measured_ok"`
	ReadNSPerBlock float64 `json:"read_ns_per_block,omitempty"`
	WriteNSPerBlk  float64 `json:"write_ns_per_block,omitempty"`
	ReadBlocks     uint64  `json:"observed_read_blocks"`
	WriteBlocks    uint64  `json:"observed_write_blocks"`
}

// statsSnapshot is the /stats payload.
type statsSnapshot struct {
	Broker  BrokerStats             `json:"broker"`
	Tuning  tuningStats             `json:"tuning"`
	Kernels map[string]KernelLedger `json:"kernels"`
	Jobs    []JobStats              `json:"jobs"`
}

func (s *Server) tuningSnapshot() tuningStats {
	ms := s.meter.Snapshot()
	return tuningStats{
		OmegaPrior:     s.cfg.Omega,
		OmegaMeasured:  ms.Measured,
		OmegaEffective: s.meter.Effective(s.cfg.Omega),
		MeasuredOK:     ms.Ok,
		ReadNSPerBlock: ms.ReadNSPerBlock,
		WriteNSPerBlk:  ms.WriteNSPerBlock,
		ReadBlocks:     ms.ReadBlocks,
		WriteBlocks:    ms.WriteBlocks,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := statsSnapshot{Broker: s.cfg.Broker.Stats(), Tuning: s.tuningSnapshot()}
	snap.Jobs = s.jobs.List(func(jobs []JobStats) {
		snap.Kernels = maps.Clone(s.agg)
		now := time.Now()
		for i := range jobs {
			// Live jobs report elapsed wall time in their current phase; a
			// queued job's PhaseMS is its live queue wait.
			if j := &jobs[i]; j.Live() {
				j.PhaseMS = now.Sub(j.phaseStart).Milliseconds()
				if j.State == "queued" {
					j.QueueMS = j.PhaseMS
				}
			}
		}
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

// healthSnapshot is the /healthz payload.
type healthSnapshot struct {
	Status     string        `json:"status"` // ok|draining
	UptimeMS   int64         `json:"uptime_ms"`
	LiveLeases int           `json:"live_leases"`
	Queued     int           `json:"queued"`
	Build      obs.BuildInfo `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bs := s.cfg.Broker.Stats()
	h := healthSnapshot{
		Status:     "ok",
		UptimeMS:   time.Since(s.start).Milliseconds(),
		LiveLeases: len(bs.Running),
		Queued:     bs.Queued,
		Build:      s.build,
	}
	if s.draining.Load() {
		h.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleKernel runs one job of the named kernel. alias marks the
// historical /sort route, whose responses stay byte-identical to the
// pre-registry daemon (no kernel/out headers, bare-key text output).
func (s *Server) handleKernel(w http.ResponseWriter, r *http.Request, name string, alias bool) {
	k, ok := kernel.Get(name)
	if !ok {
		JSONError(w, http.StatusNotFound, "unknown kernel %q (kernels: %s)", name, strings.Join(kernel.Names(), ", "))
		return
	}
	j := s.jobs.Open(JobStats{Kernel: k.Name, phaseStart: time.Now()})
	var tr *obs.Trace
	if s.cfg.TraceDir != "" {
		tr = obs.NewTrace(fmt.Sprintf("job-%d", j.ID))
	}
	sj := &servedJob{Server: s, j: j, w: w, r: r, k: k, alias: alias, root: tr.Root("job")}
	err := sj.runJob()
	sj.root.End()
	fin := s.jobs.Close(j, err, func(j *JobStats) {
		a := s.agg[j.Kernel]
		a.Jobs++
		switch j.State {
		case "done":
			a.Done++
		case "canceled":
			a.Canceled++
		default:
			a.Failed++
		}
		a.Reads += j.Reads
		a.Writes += j.Writes
		a.PlanWrites += j.PlanWrites
		s.agg[j.Kernel] = a
	})
	s.obsm.jobs.With(fin.Kernel, cmp.Or(fin.Model, "none"), fin.State).Inc()
	ExportTrace(s.cfg.TraceDir, fin.ID, tr)
}

// servedJob is one kernel request on its way through runJob's steps.
// Each step owns its span, its phase fields of the job record and its
// failure status, and hands its results on through the record: only
// the job's own goroutine writes it, so the steps read it unlocked.
type servedJob struct {
	*Server
	j     *JobStats
	w     http.ResponseWriter
	r     *http.Request
	k     *kernel.Kernel
	alias bool
	root  *obs.Span

	q   JobQuery
	p   kernel.Params
	dir string // the job's scratch dir: staging, output and spill files
	in  Staged
	out string // the result record file
}

// set mutates the job record under the job table's lock.
func (sj *servedJob) set(f func(*JobStats)) { sj.jobs.Update(sj.j, f) }

// runJob executes one kernel job end to end: stage, admit, run,
// stream. Any error return before output streaming starts has been
// answered with an HTTP error status; once the first result byte is
// out, errors abort the chunked body so the client's own order/count
// verification fails.
func (sj *servedJob) runJob() error {
	var err error
	if sj.q, err = ParseJobQuery(sj.r); err == nil {
		sj.p, err = kernelParams(sj.r)
	}
	if err != nil {
		return Fail(sj.w, http.StatusBadRequest, "job %d: %v", sj.j.ID, err)
	}
	opts := AcquireOpts{Priority: sj.q.Priority}
	if sj.q.hasDeadline {
		opts.Deadline = time.Now().Add(sj.q.Deadline) // resolved at arrival
	}
	sj.set(func(j *JobStats) { j.Priority = sj.q.Priority; j.DeadlineMS = sj.q.Deadline.Milliseconds() })
	if sj.dir, err = os.MkdirTemp(sj.cfg.TmpDir, fmt.Sprintf("asymsortd-job%d-", sj.j.ID)); err != nil {
		return Fail(sj.w, http.StatusInternalServerError, "job %d: %v", sj.j.ID, err)
	}
	defer os.RemoveAll(sj.dir)
	if err := sj.stage(); err != nil {
		return err
	}
	lease, err := sj.admit(opts)
	if err != nil {
		return err
	}
	defer lease.Release()
	// A client disconnect revokes the lease; the engine aborts at the
	// next block boundary.
	stopWatch := context.AfterFunc(sj.r.Context(), lease.Cancel)
	defer stopWatch()
	if err := sj.run(lease); err != nil {
		return err
	}
	return sj.stream()
}

// stage spools the request body into the job dir, fixing n, and checks
// the kernel's parameters against n before any admission. A contiguous
// binary frame is staged header-in-place: the engine reads the payload
// where it landed, behind InSkip, with no second copy.
func (sj *servedJob) stage() error {
	start := time.Now()
	in, err := StageRequest(sj.w, sj.r, sj.j.ID, sj.dir, sj.root)
	sj.set(func(j *JobStats) {
		j.StageMS = time.Since(start).Milliseconds()
		if err != nil && sj.r.Context().Err() != nil {
			j.State = "canceled"
		}
	})
	if err != nil {
		return err
	}
	if err := sj.k.Check(in.N, sj.p); err != nil {
		return Fail(sj.w, http.StatusBadRequest, "job %d: %v", sj.j.ID, err)
	}
	// Non-sort kernels' payloads carry results (group sums, counts,
	// join sums), so their text dialect renders "key value" lines; the
	// sort kernel keeps the historical bare-key lines.
	in.Out.WithVals = sj.k.Name != "sort"
	sj.in = in
	sj.set(func(j *JobStats) { j.N = in.N; j.State = "queued"; j.phaseStart = time.Now() })
	return nil
}

// admit leases the job's budget and picks its model. It asks for
// enough to run in RAM (2n: slice plus working copy/scratch) unless
// mem= overrides the hint, floored so tiny jobs still get a workable
// ext budget; the broker clamps the ask to the envelope and may queue
// it under backpressure. model=auto runs native when 2n records fit the
// grant and ext otherwise.
func (sj *servedJob) admit(opts AcquireOpts) (*Lease, error) {
	n := sj.in.N
	want := max(cmp.Or(sj.q.Mem, 2*n), 16*sj.cfg.Block)
	queued := time.Now()
	queueSp := sj.root.Child("queue")
	lease, err := sj.cfg.Broker.AcquireWith(sj.r.Context(), want, opts)
	queueSp.End()
	sj.obsm.queueWait.With().Observe(time.Since(queued).Seconds())
	if err != nil {
		sj.set(func(j *JobStats) { j.State = "canceled" })
		return nil, Fail(sj.w, http.StatusServiceUnavailable, "job %d: admission: %v", sj.j.ID, err)
	}
	// Broker lease decisions (grow/shrink at level boundaries, the final
	// reclaim) land on the job's trace timeline as instant events.
	if sj.root != nil {
		lease.SetOnEvent(func(kind string, recs int) {
			sj.root.Event(kind, obs.Attr{Key: "recs", Val: int64(recs)})
		})
	}
	grant := lease.Mem()
	sj.root.Event("lease-grant", obs.Attr{Key: "recs", Val: int64(grant)})
	model := sj.q.Model
	if model == "auto" {
		model = "ext"
		if 2*n <= grant {
			model = "native"
		}
	}
	sj.set(func(j *JobStats) {
		j.QueueMS = time.Since(queued).Milliseconds()
		j.State = "running"
		j.phaseStart = time.Now()
		j.Model = model
		j.MemGrant = grant
		j.Procs = lease.Procs()
	})
	return lease, nil
}

// run executes the kernel on the staged input into the result file:
// native in RAM on the leased pool, or the external-memory composition
// with Mem = the grant and the lease wired into extmem.Config, so the
// broker can rebalance or cancel the job while it runs.
func (sj *servedJob) run(lease *Lease) error {
	// Effective ω for this job: the live measurement blended with the
	// configured prior (fully measured when the prior is 0). ChooseK
	// inside the ext engine sees exactly this value, so the per-job fan-in
	// tracks the device the daemon is actually running on.
	omega := sj.meter.Effective(sj.cfg.Omega)
	sj.set(func(j *JobStats) { j.Omega = omega })
	start := time.Now()
	n, grant, id := sj.in.N, sj.j.MemGrant, sj.j.ID
	sp := sj.root.Child("run")
	sp.Set(obs.Attr{Key: "n", Val: int64(n)}, obs.Attr{Key: "grant", Val: int64(grant)})
	defer sp.End()
	sj.out = filepath.Join(sj.dir, "out.bin")
	outN := n
	if sj.j.Model == "native" {
		if 2*n > grant {
			return Fail(sj.w, http.StatusInsufficientStorage,
				"job %d: native needs %d records resident, grant is %d", id, 2*n, grant)
		}
		var err error
		if outN, err = runNative(lease, sj.k, sj.p, sj.in.Path, sj.in.Skip, sj.out, omega); err != nil {
			return Fail(sj.w, http.StatusInternalServerError, "job %d: %v", id, err)
		}
	} else {
		res, err := sj.k.Ext(extmem.Config{
			Mem: grant, Block: sj.cfg.Block, K: sj.cfg.K, Omega: omega,
			TmpDir: sj.dir, Pool: lease.Pool(), Lease: lease,
			Span: sp, InSkip: sj.in.Skip, Meter: sj.meter,
		}, sj.in.Path, sj.out, sj.p)
		switch {
		case err != nil && sj.r.Context().Err() != nil:
			sj.set(func(j *JobStats) { j.State = "canceled" })
			return fmt.Errorf("job %d: %w", id, err) // client is gone; no body to write
		case errors.Is(err, kernel.ErrBudget):
			return Fail(sj.w, http.StatusInsufficientStorage, "job %d: %v", id, err)
		case err != nil:
			return Fail(sj.w, http.StatusInternalServerError, "job %d: %v", id, err)
		}
		outN = res.OutN
		sj.recordBlockIO(res)
		// Persist the freshly-observed costs so a restarted daemon starts
		// warm. Best-effort: a full tmpdir must not fail the job.
		_ = sj.meter.Save()
		sj.set(func(j *JobStats) {
			j.Reads = res.Total.Reads
			j.Writes = res.Total.Writes
			j.PlanWrites = res.PlanWrites
			if len(res.Sorts) > 0 {
				j.Levels = res.Sorts[0].Levels
				j.K = res.Sorts[0].K
			}
		})
	}
	sj.set(func(j *JobStats) {
		j.SortMS = time.Since(start).Milliseconds()
		j.OutN = outN
	})
	return nil
}

// stream sends the result records out. Every response header is set
// here, before the first body byte, in both wire modes — nothing below
// touches w.Header() once streaming may have flushed. The ext ledger
// headers let clients compare measured vs planned writes without a
// /stats round-trip. The /sort alias omits the kernel/out headers so
// its responses stay byte-identical to the pre-registry daemon.
func (sj *servedJob) stream() error {
	j, h := sj.j, sj.w.Header()
	h.Set("Content-Type", sj.in.Out.ContentType())
	h.Set("X-Asymsortd-Wire", sj.in.Out.Name())
	h.Set("X-Asymsortd-Job", strconv.Itoa(j.ID))
	if !sj.alias {
		h.Set("X-Asymsortd-Kernel", sj.k.Name)
		h.Set("X-Asymsortd-Out", strconv.Itoa(j.OutN))
	}
	h.Set("X-Asymsortd-Model", j.Model)
	h.Set("X-Asymsortd-Mem", strconv.Itoa(j.MemGrant))
	if j.Model == "ext" {
		h.Set("X-Asymsortd-Writes", strconv.FormatUint(j.Writes, 10))
		h.Set("X-Asymsortd-Plan-Writes", strconv.FormatUint(j.PlanWrites, 10))
	}
	sj.set(func(j *JobStats) { j.State = "streaming"; j.phaseStart = time.Now() })
	start := time.Now()
	sp := sj.root.Child("stream")
	sp.Set(obs.Attr{Key: "recs", Val: int64(j.OutN)})
	err := sj.in.Out.Stream(sj.w, sj.out, j.OutN)
	sp.End()
	sj.set(func(j *JobStats) { j.StreamMS = time.Since(start).Milliseconds() })
	if err != nil {
		return fmt.Errorf("job %d: streaming output: %w", j.ID, err)
	}
	return nil
}

// recordBlockIO folds an ext job's per-level ledger into the block-IO
// counters: level "form" is run formation, "merge<ℓ>" the merge levels,
// and "scan" whatever the composition charged outside its sorts (the
// scan-based kernels' one-pass reads, merge-join's co-stream).
func (s *Server) recordBlockIO(res *kernel.ExtResult) {
	blockBytes := float64(s.cfg.Block) * wire.RecordBytes
	var inSorts cost.Snapshot
	for _, rep := range res.Sorts {
		for lvl, io := range rep.LevelIO {
			label := "form"
			if lvl > 0 {
				label = "merge" + strconv.Itoa(lvl)
			}
			s.addBlockIO(label, io, blockBytes)
		}
		inSorts = inSorts.Add(rep.Total)
	}
	s.addBlockIO("scan", res.Total.Sub(inSorts), blockBytes)
}

func (s *Server) addBlockIO(label string, io cost.Snapshot, blockBytes float64) {
	if io.Reads > 0 {
		s.obsm.blkReads.With(label).Add(float64(io.Reads))
		s.obsm.blkReadB.With(label).Add(float64(io.Reads) * blockBytes)
	}
	if io.Writes > 0 {
		s.obsm.blkWrites.With(label).Add(float64(io.Writes))
		s.obsm.blkWriteB.With(label).Add(float64(io.Writes) * blockBytes)
	}
}

// runNative runs the kernel in RAM on the leased pool and returns the
// result count. The sort kernel takes the in-place fast path (the
// n-record slice plus SortRecords' n-record merge scratch — the 2n the
// admission check guaranteed); other kernels run their registry
// composition on the native backend.
func runNative(l *Lease, k *kernel.Kernel, p kernel.Params, inPath string, skip int, outPath string, omega float64) (int, error) {
	recs, err := extmem.ReadRecordsFile(inPath)
	if err != nil {
		return 0, err
	}
	recs = recs[skip:] // drop the staged-in-place frame header, if any
	if k.Name == "sort" {
		rt.SortRecords(l.Pool(), recs)
		return len(recs), extmem.WriteRecordsFile(outPath, recs)
	}
	c := rt.NewNative(l.Pool(), uint64(omega))
	out := k.Run(c, rt.WrapSlice(c, recs), p).Unwrap()
	return len(out), extmem.WriteRecordsFile(outPath, out)
}
