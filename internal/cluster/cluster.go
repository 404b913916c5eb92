// Package cluster distributes the sort service across machines: a
// coordinator that range-partitions one /sort job over a fleet of
// asymsortd workers and returns output byte-identical to a solo run.
//
// The shape is one BSP superstep — scatter, sort, gather:
//
//	client ── POST /sort ──▶ coordinator
//	                           │ check query (serve.ParseJobQuery)
//	                           │ stage body (serve.StageRequest, fixes n)
//	                           │ sample keys → S-1 splitters
//	                           │ range-partition into S shard files
//	                           │
//	        scatter: contiguous binary frames, one POST /sort per shard
//	           ┌───────────────┼───────────────┐
//	           ▼               ▼               ▼
//	        worker 0        worker 1        worker 2   (plain asymsortd)
//	           │               │               │
//	           └───────────────┼───────────────┘
//	        gather: sorted shard files concatenated in shard order
//	                           │
//	client ◀── sorted body ────┘
//
// Correctness rests on the splitter contract exported by
// internal/extmem (Splitters/ShardOf): cuts are exact lower bounds
// under seq.TotalLess, so shard i holds precisely the records
// splitter[i-1] <= r < splitter[i], every worker sorts its shard with
// the same total order, and the concatenation of sorted shards IS the
// sorted whole — byte-identical to `asymsort -model ext` on the same
// input, which the cluster tests and the CI smoke pin.
//
// The coordinator serves /sort through internal/serve's request path:
// it validates the query with serve's grammar and relays the accepted
// values verbatim to every shard POST (JobQuery.Forward), stages the
// body with serve's staging step, and answers errors with serve's
// helpers. So it rejects exactly what a worker would reject, with the
// same 400, before any worker traffic.
//
// Shards travel as contiguous wire frames (Content-Type
// application/x-asymsort-records), so each worker stages its shard
// header-in-place and hands it to the engine behind
// extmem.Config.InSkip — the zero-copy path; no worker ever parses a
// record. Workers are plain asymsortd daemons: they need no cluster
// awareness at all.
//
// Robustness: workers are probed on GET /healthz before each job;
// failed shard attempts are retried on any live worker up to
// Config.Retries times; and when Config.HedgeAfter is set, an idle
// worker duplicates the oldest in-flight straggler shard — first
// answer wins, the loser is canceled, and either answer is
// byte-identical so hedging never changes output. A worker whose
// attempt fails and whose re-probe also fails leaves the fleet for the
// rest of the job.
//
// Observability mirrors internal/serve: per-job trace spans (probe,
// stage, split, scatter with one child span per shard attempt,
// gather), asymsortd_cluster_* metrics on GET /metrics, and a JSON job
// table with per-worker byte/retry ledgers on GET /stats. See
// docs/ARCHITECTURE.md for where the layer sits and
// docs/OPERATIONS.md for running a fleet.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"asymsort/internal/obs"
	"asymsort/internal/serve"
)

// Config parameterizes a coordinator.
type Config struct {
	// Workers is the fleet: base URLs of plain asymsortd daemons
	// (e.g. http://10.0.0.2:8080). Required, at least one.
	Workers []string
	// Shards is how many range shards each job is cut into; more shards
	// than workers lets retry and hedging move smaller units around.
	// Default len(Workers).
	Shards int
	// Retries bounds re-dispatches per shard after its first failed
	// attempt. Default 2.
	Retries int
	// HedgeAfter, when positive, re-dispatches a shard that has been
	// in flight on one worker for longer than this to an idle worker.
	// Zero disables hedging.
	HedgeAfter time.Duration
	// TmpDir is where job staging and shard files live; each job gets
	// its own subdirectory, removed when the job ends. Empty means
	// os.TempDir().
	TmpDir string
	// Metrics, when non-nil, is the registry the coordinator publishes
	// to and the one GET /metrics renders. Nil wires a private one.
	Metrics *obs.Registry
	// TraceDir, when non-empty, enables per-job trace export in the
	// same two formats as internal/serve.
	TraceDir string
	// ProbeTimeout bounds one /healthz probe. Default 2s.
	ProbeTimeout time.Duration
}

// maxRetainedJobs bounds the /stats history, as in internal/serve.
const maxRetainedJobs = 4096

// Coordinator is the cluster job engine.
type Coordinator struct {
	cfg     Config
	start   time.Time
	build   obs.BuildInfo
	reg     *obs.Registry
	obsm    coordMetrics
	workers []*worker

	mu     sync.Mutex
	jobs   map[int]*JobStats
	order  []int
	nextID int
}

// coordMetrics holds the coordinator's metric family handles.
type coordMetrics struct {
	jobs     obs.Vec // counter {outcome}
	attempts obs.Vec // counter {worker,outcome}
	retries  obs.Vec // counter {worker}
	hedges   obs.Vec // counter, no labels
	bytes    obs.Vec // counter {worker,direction}
	phase    obs.Vec // histogram {phase}
	healthy  obs.Vec // gauge, no labels
}

func newCoordMetrics(reg *obs.Registry) coordMetrics {
	return coordMetrics{
		jobs: reg.Counter("asymsortd_cluster_jobs_total",
			"Cluster jobs finished, by outcome.", "outcome"),
		attempts: reg.Counter("asymsortd_cluster_shard_attempts_total",
			"Shard sort attempts, by worker and outcome.", "worker", "outcome"),
		retries: reg.Counter("asymsortd_cluster_shard_retries_total",
			"Failed shard attempts that were re-queued, by the worker that failed.", "worker"),
		hedges: reg.Counter("asymsortd_cluster_hedges_total",
			"Straggler shards re-dispatched to a spare worker."),
		bytes: reg.Counter("asymsortd_cluster_worker_bytes_total",
			"Shard payload bytes moved per worker, by direction (sent|received).",
			"worker", "direction"),
		phase: reg.Histogram("asymsortd_cluster_phase_seconds",
			"Coordinator job phase walls (stage, split, scatter, gather).",
			obs.DurationBuckets, "phase"),
		healthy: reg.Gauge("asymsortd_cluster_workers_healthy",
			"Workers that passed their most recent health probe."),
	}
}

// JobStats is one cluster job's ledger, served on /stats.
type JobStats struct {
	ID     int    `json:"id"`
	State  string `json:"state"` // staging|running|streaming|done|failed|canceled
	N      int    `json:"n"`
	Wire   string `json:"wire,omitempty"`
	Shards int    `json:"shards,omitempty"`
	// Retries counts failed shard attempts that were re-queued; Hedges
	// counts straggler duplications. Both zero on a quiet fleet.
	Retries int `json:"retries,omitempty"`
	Hedges  int `json:"hedges,omitempty"`
	// Writes/PlanWrites sum the workers' ext ledger headers across the
	// job's winning shard attempts; equal when present — the write-plan
	// identity survives distribution.
	Writes     uint64 `json:"writes,omitempty"`
	PlanWrites uint64 `json:"plan_writes,omitempty"`
	StageMS    int64  `json:"stage_ms"`
	SplitMS    int64  `json:"split_ms"`
	ScatterMS  int64  `json:"scatter_ms"`
	StreamMS   int64  `json:"stream_ms"`
	TotalMS    int64  `json:"total_ms"`
	Err        string `json:"err,omitempty"`
}

func (j *JobStats) live() bool {
	switch j.State {
	case "staging", "running", "streaming":
		return true
	}
	return false
}

// WorkerStats is one worker's cumulative ledger, served on /stats and
// (health only) on /healthz.
type WorkerStats struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	LastErr string `json:"last_err,omitempty"`
	// Shards counts winning shard sorts; Retries counts failed attempts
	// charged to this worker.
	Shards        int    `json:"shards"`
	Retries       int    `json:"retries"`
	BytesSent     uint64 `json:"bytes_sent"`
	BytesReceived uint64 `json:"bytes_received"`
}

// New builds a coordinator over the worker fleet.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one worker URL")
	}
	if cfg.Shards < 1 {
		cfg.Shards = len(cfg.Workers)
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("cluster: negative retry budget %d", cfg.Retries)
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.TmpDir == "" {
		cfg.TmpDir = os.TempDir()
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c := &Coordinator{
		cfg: cfg, start: time.Now(), build: obs.ReadBuildInfo(),
		reg: reg, obsm: newCoordMetrics(reg),
		jobs: make(map[int]*JobStats),
	}
	// One client for all worker traffic, with no overall timeout: shard
	// sorts are long-lived.
	client := &http.Client{}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &worker{url: u, client: client})
	}
	reg.GaugeFunc("asymsortd_uptime_seconds",
		"Seconds since the coordinator started.",
		func() float64 { return time.Since(c.start).Seconds() })
	return c, nil
}

// Handler returns the coordinator mux. The client-facing surface is
// the same dialect as a solo daemon's /sort, so clients (asymload
// included) need no cluster awareness either.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sort", c.handleSort)
	mux.HandleFunc("GET /stats", c.handleStats)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.Handle("GET /metrics", c.reg)
	mux.HandleFunc("/sort", serve.MethodNotAllowed("POST"))
	mux.HandleFunc("/stats", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/healthz", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/metrics", serve.MethodNotAllowed("GET"))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		serve.JSONError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	return mux
}

// statsSnapshot is the coordinator's /stats payload.
type statsSnapshot struct {
	Workers []WorkerStats `json:"workers"`
	Jobs    []JobStats    `json:"jobs"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := statsSnapshot{}
	for _, wk := range c.workers {
		snap.Workers = append(snap.Workers, wk.stats())
	}
	c.mu.Lock()
	for _, j := range c.jobs {
		snap.Jobs = append(snap.Jobs, *j)
	}
	c.mu.Unlock()
	sort.Slice(snap.Jobs, func(a, b int) bool { return snap.Jobs[a].ID < snap.Jobs[b].ID })
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

// healthSnapshot is the coordinator's /healthz payload: the fleet is
// re-probed on every request, so the status is live, not cached.
type healthSnapshot struct {
	Status         string        `json:"status"` // ok|degraded|down
	Role           string        `json:"role"`
	UptimeMS       int64         `json:"uptime_ms"`
	HealthyWorkers int           `json:"healthy_workers"`
	Workers        []WorkerStats `json:"workers"`
	Build          obs.BuildInfo `json:"build"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := c.probeWorkers(r.Context())
	h := healthSnapshot{
		Role:           "coordinator",
		UptimeMS:       time.Since(c.start).Milliseconds(),
		HealthyWorkers: len(healthy),
		Build:          c.build,
	}
	for _, wk := range c.workers {
		h.Workers = append(h.Workers, wk.stats())
	}
	switch {
	case len(healthy) == len(c.workers):
		h.Status = "ok"
	case len(healthy) > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// probeWorkers health-checks the whole fleet concurrently and returns
// the workers that answered, updating the healthy gauge.
func (c *Coordinator) probeWorkers(ctx context.Context) []*worker {
	var wg sync.WaitGroup
	for _, wk := range c.workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			wk.probe(ctx, c.cfg.ProbeTimeout)
		}(wk)
	}
	wg.Wait()
	var healthy []*worker
	for _, wk := range c.workers {
		if wk.isHealthy() {
			healthy = append(healthy, wk)
		}
	}
	c.obsm.healthy.With().Set(float64(len(healthy)))
	return healthy
}

// newJob registers a job record, evicting old finished jobs beyond the
// retention cap.
func (c *Coordinator) newJob() *JobStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := &JobStats{ID: c.nextID, State: "staging"}
	c.nextID++
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	for i := 0; len(c.jobs) > maxRetainedJobs && i < len(c.order); {
		id := c.order[i]
		old, ok := c.jobs[id]
		if ok && old.live() {
			i++
			continue
		}
		delete(c.jobs, id)
		c.order = append(c.order[:i], c.order[i+1:]...)
	}
	return j
}

func (c *Coordinator) setJob(j *JobStats, f func(*JobStats)) {
	c.mu.Lock()
	f(j)
	c.mu.Unlock()
}

func (c *Coordinator) handleSort(w http.ResponseWriter, r *http.Request) {
	j := c.newJob()
	var tr *obs.Trace
	if c.cfg.TraceDir != "" {
		tr = obs.NewTrace(fmt.Sprintf("job-%d", j.ID))
	}
	root := tr.Root("cluster-job")
	start := time.Now()
	err := c.runJob(r.Context(), j, w, r, root)
	root.End()
	c.mu.Lock()
	j.TotalMS = time.Since(start).Milliseconds()
	if err != nil {
		if j.State != "canceled" {
			j.State = "failed"
		}
		j.Err = err.Error()
	} else {
		j.State = "done"
	}
	outcome := j.State
	c.mu.Unlock()
	c.obsm.jobs.With(outcome).Inc()
	serve.ExportTrace(c.cfg.TraceDir, j.ID, tr)
}

// runJob executes one cluster sort end to end: stage → probe → split →
// scatter → gather. Errors before the first response byte become
// proper HTTP statuses; after that, aborting the chunked body is the
// only honest signal left, exactly as in the solo engine.
func (c *Coordinator) runJob(ctx context.Context, j *JobStats, w http.ResponseWriter, r *http.Request, root *obs.Span) error {
	q, err := serve.ParseJobQuery(r)
	if err != nil {
		return serve.Fail(w, http.StatusBadRequest, "job %d: %v", j.ID, err)
	}
	dir, err := os.MkdirTemp(c.cfg.TmpDir, fmt.Sprintf("asymcoord-job%d-", j.ID))
	if err != nil {
		return serve.Fail(w, http.StatusInternalServerError, "job %d: %v", j.ID, err)
	}
	defer os.RemoveAll(dir)

	// Stage the client body locally, fixing n.
	stageStart := time.Now()
	in, err := serve.StageRequest(w, r, j.ID, dir, root)
	c.obsm.phase.With("stage").Observe(time.Since(stageStart).Seconds())
	c.setJob(j, func(j *JobStats) {
		j.Wire, j.N, j.StageMS = in.Out.Name(), in.N, time.Since(stageStart).Milliseconds()
		if err != nil && ctx.Err() != nil {
			j.State = "canceled"
		}
	})
	if err != nil {
		return err
	}

	// Admit only against a live fleet.
	probeSp := root.Child("probe")
	healthy := c.probeWorkers(ctx)
	probeSp.Set(obs.Attr{Key: "healthy", Val: int64(len(healthy))})
	probeSp.End()
	if len(healthy) == 0 {
		return serve.Fail(w, http.StatusServiceUnavailable, "job %d: no healthy workers", j.ID)
	}
	c.setJob(j, func(j *JobStats) { j.State = "running" })

	// Split: sample, cut splitters, write shard files.
	splitSp := root.Child("split")
	splitStart := time.Now()
	shards, err := c.partition(in.Path, in.N, in.Skip, dir, splitSp)
	splitSp.End()
	c.obsm.phase.With("split").Observe(time.Since(splitStart).Seconds())
	c.setJob(j, func(j *JobStats) {
		j.SplitMS = time.Since(splitStart).Milliseconds()
		j.Shards = len(shards)
	})
	if err != nil {
		return serve.Fail(w, http.StatusInternalServerError, "job %d: %v", j.ID, err)
	}

	// Scatter: dispatch shards across the fleet until every one has a
	// sorted result file (or the retry budget is spent).
	scatterSp := root.Child("scatter")
	scatterStart := time.Now()
	d := newDispatcher(c, shards, dir, q.Forward(), scatterSp)
	err = d.run(ctx, healthy)
	scatterSp.End()
	c.obsm.phase.With("scatter").Observe(time.Since(scatterStart).Seconds())
	var writes, planWrites uint64
	var paths []string
	ledger := true
	for _, sh := range d.shards { // the non-empty ones
		paths = append(paths, sh.outPath)
		writes += sh.writes
		planWrites += sh.planWrites
		if sh.writes == 0 {
			ledger = false // a native-model shard carries no ext ledger
		}
	}
	c.setJob(j, func(j *JobStats) {
		j.ScatterMS = time.Since(scatterStart).Milliseconds()
		j.Retries = d.retried
		j.Hedges = d.hedged
		if ledger {
			j.Writes, j.PlanWrites = writes, planWrites
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			c.setJob(j, func(j *JobStats) { j.State = "canceled" })
			return fmt.Errorf("job %d: %w", j.ID, err)
		}
		return serve.Fail(w, http.StatusBadGateway, "job %d: %v", j.ID, err)
	}

	// Gather: concatenate the sorted shard files in shard order — the
	// splitter contract makes that the globally sorted output.
	w.Header().Set("Content-Type", in.Out.ContentType())
	w.Header().Set("X-Asymsortd-Wire", in.Out.Name())
	w.Header().Set("X-Asymsortd-Job", strconv.Itoa(j.ID))
	w.Header().Set("X-Asymsortd-Model", "cluster")
	w.Header().Set("X-Asymsortd-Shards", strconv.Itoa(len(shards)))
	w.Header().Set("X-Asymsortd-Cluster-Workers", strconv.Itoa(len(healthy)))
	if ledger {
		w.Header().Set("X-Asymsortd-Writes", strconv.FormatUint(writes, 10))
		w.Header().Set("X-Asymsortd-Plan-Writes", strconv.FormatUint(planWrites, 10))
	}
	c.setJob(j, func(j *JobStats) { j.State = "streaming" })
	streamStart := time.Now()
	streamSp := root.Child("gather")
	streamSp.Set(obs.Attr{Key: "recs", Val: int64(in.N)})
	err = in.Out.StreamFiles(w, paths, in.N)
	streamSp.End()
	c.obsm.phase.With("gather").Observe(time.Since(streamStart).Seconds())
	c.setJob(j, func(j *JobStats) { j.StreamMS = time.Since(streamStart).Milliseconds() })
	if err != nil {
		return fmt.Errorf("job %d: streaming output: %w", j.ID, err)
	}
	return nil
}
