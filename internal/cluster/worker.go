package cluster

// The worker client and the shard scheduler. A worker is a plain
// asymsortd daemon reached over HTTP: probe() is its GET /healthz
// check, sortShard() one POST /sort carrying a contiguous binary
// frame. The dispatcher runs one fetch loop per healthy worker over a
// shared queue: failed attempts re-queue until the per-shard retry
// budget is spent, idle workers hedge the oldest straggler, and a
// worker that fails an attempt and then fails a re-probe leaves the
// job. All dispatch state lives under one mutex with a condition
// variable; a ticker broadcasts while hedging is armed so idle loops
// re-check straggler ages.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"asymsort/internal/obs"
	"asymsort/internal/wire"
)

// worker is the coordinator's view of one asymsortd daemon.
type worker struct {
	url    string
	client *http.Client

	mu       sync.Mutex
	healthy  bool
	lastErr  string
	shards   int // winning shard sorts
	retries  int // failed attempts charged to this worker
	bytesOut uint64
	bytesIn  uint64
}

func (w *worker) isHealthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy
}

func (w *worker) stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStats{
		URL: w.url, Healthy: w.healthy, LastErr: w.lastErr,
		Shards: w.shards, Retries: w.retries,
		BytesSent: w.bytesOut, BytesReceived: w.bytesIn,
	}
}

// probe hits GET /healthz and records the outcome. Only a 200 whose
// body reports status "ok" is healthy: a draining daemon still answers
// 200, and neither it nor a dead one is dispatched to.
func (w *worker) probe(ctx context.Context, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	ok, errMsg := false, ""
	req, err := http.NewRequestWithContext(ctx, "GET", w.url+"/healthz", nil)
	if err != nil {
		errMsg = err.Error()
	} else if resp, err := w.client.Do(req); err != nil {
		errMsg = err.Error()
	} else {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)) // a short read fails the decode
		resp.Body.Close()
		var h struct {
			Status string `json:"status"`
		}
		switch {
		case resp.StatusCode != http.StatusOK:
			errMsg = fmt.Sprintf("healthz status %d", resp.StatusCode)
		case json.Unmarshal(body, &h) != nil || h.Status != "ok":
			errMsg = fmt.Sprintf("healthz status %q", h.Status)
		default:
			ok = true
		}
	}
	w.mu.Lock()
	w.healthy, w.lastErr = ok, errMsg
	w.mu.Unlock()
	return ok
}

// shardResult is what a successful attempt yields.
type shardResult struct {
	outPath    string
	writes     uint64
	planWrites uint64
}

// sortShard ships one shard to the worker as a contiguous binary frame
// (the worker stages it in place behind InSkip) and spools the sorted
// response frame to a private file. The response count must match the
// shard's; a malformed or short frame is an error, never a hang — the
// frame reader validates as it spools.
func (w *worker) sortShard(ctx context.Context, sh *shard, attempt int, query, dir string) (shardResult, error) {
	var res shardResult
	f, err := os.Open(sh.path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	var hdr []byte
	hdr, err = wire.AppendHeader(nil, wire.Header{Count: int64(sh.n), Contiguous: true})
	if err != nil {
		return res, err
	}
	u := w.url + "/sort"
	if query != "" {
		u += "?" + query // the client's validated hints, serve.JobQuery.Forward
	}
	req, err := http.NewRequestWithContext(ctx, "POST", u, io.MultiReader(strings.NewReader(string(hdr)), f))
	if err != nil {
		return res, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	req.ContentLength = int64(wire.HeaderBytes + sh.n*wire.RecordBytes)

	resp, err := w.client.Do(req)
	if err != nil {
		return res, fmt.Errorf("worker %s: shard %d: %w", w.url, sh.id, err)
	}
	defer resp.Body.Close()
	w.mu.Lock()
	w.bytesOut += uint64(req.ContentLength)
	w.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return res, fmt.Errorf("worker %s: shard %d: status %d: %s", w.url, sh.id, resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	fr, err := wire.NewReader(resp.Body)
	if err != nil {
		return res, fmt.Errorf("worker %s: shard %d: %w", w.url, sh.id, err)
	}
	out := filepath.Join(dir, fmt.Sprintf("sorted-%d-a%d.bin", sh.id, attempt))
	of, err := os.Create(out)
	if err != nil {
		return res, err
	}
	n, err := fr.Spool(of)
	if cerr := of.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(out)
		return res, fmt.Errorf("worker %s: shard %d: %w", w.url, sh.id, err)
	}
	if int(n) != sh.n {
		os.Remove(out)
		return res, fmt.Errorf("worker %s: shard %d: sorted %d records, want %d", w.url, sh.id, n, sh.n)
	}
	w.mu.Lock()
	w.bytesIn += uint64(n) * wire.RecordBytes
	w.mu.Unlock()
	res.outPath = out
	res.writes, _ = strconv.ParseUint(resp.Header.Get("X-Asymsortd-Writes"), 10, 64)
	res.planWrites, _ = strconv.ParseUint(resp.Header.Get("X-Asymsortd-Plan-Writes"), 10, 64)
	return res, nil
}

// dispatcher schedules one job's shards across the fleet.
type dispatcher struct {
	c     *Coordinator
	dir   string
	query string
	sp    *obs.Span

	mu        sync.Mutex
	cond      *sync.Cond
	jobCtx    context.Context
	cancelJob context.CancelFunc
	shards    []*shard // non-empty shards only
	pending   []*shard
	done      int
	active    int // worker loops still running
	err       error
	retried   int
	hedged    int
}

func newDispatcher(c *Coordinator, shards []*shard, dir, query string, sp *obs.Span) *dispatcher {
	d := &dispatcher{c: c, dir: dir, query: query, sp: sp}
	d.cond = sync.NewCond(&d.mu)
	for _, sh := range shards {
		if sh.n > 0 {
			d.shards = append(d.shards, sh)
			d.pending = append(d.pending, sh)
		}
	}
	return d
}

// run drives the scatter to completion: every non-empty shard sorted,
// or a terminal error (retry budget spent, or no workers left).
func (d *dispatcher) run(ctx context.Context, workers []*worker) error {
	if len(d.shards) == 0 {
		return nil
	}
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	d.jobCtx, d.cancelJob = jobCtx, cancel
	stop := context.AfterFunc(jobCtx, d.cond.Broadcast)
	defer stop()
	if d.c.cfg.HedgeAfter > 0 {
		// Idle loops wait on the cond; only time moves a straggler past
		// the hedge threshold, so a ticker supplies the wakeups.
		tick := time.NewTicker(d.c.cfg.HedgeAfter / 4)
		defer tick.Stop()
		go func() {
			for {
				select {
				case <-jobCtx.Done():
					return
				case <-tick.C:
					d.cond.Broadcast()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	d.active = len(workers)
	for _, wk := range workers {
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			d.loop(wk)
		}(wk)
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil && ctx.Err() != nil {
		d.err = ctx.Err()
	}
	if d.err == nil && d.done < len(d.shards) {
		d.err = errors.New("no healthy workers remain")
	}
	return d.err
}

// loop is one worker's fetch cycle. It exits when the job is complete
// or failed, or when the worker proves unhealthy after a failure.
func (d *dispatcher) loop(wk *worker) {
	defer func() {
		d.mu.Lock()
		d.active--
		if d.active == 0 {
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	}()
	for {
		sh, attempt, actx, cancel := d.next()
		if sh == nil {
			return
		}
		asp := d.sp.Child("shard")
		asp.Set(obs.Attr{Key: "shard", Val: int64(sh.id)},
			obs.Attr{Key: "recs", Val: int64(sh.n)},
			obs.Attr{Key: "attempt", Val: int64(attempt)})
		res, err := wk.sortShard(actx, sh, attempt, d.query, d.dir)
		asp.End()
		cancel()
		if !d.finish(sh, wk, res, err) {
			return
		}
	}
}

// next blocks until there is an attempt for this worker: a pending
// (new or re-queued) shard first, else — with hedging armed — the
// oldest single-flight straggler past the threshold. Returns a nil
// shard when the job is over.
func (d *dispatcher) next() (*shard, int, context.Context, context.CancelFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.err != nil || d.done == len(d.shards) || d.jobCtx.Err() != nil {
			return nil, 0, nil, nil
		}
		if len(d.pending) > 0 {
			sh := d.pending[0]
			d.pending = d.pending[1:]
			if sh.done {
				continue // a re-queued shard whose hedge attempt won meanwhile
			}
			return d.claimLocked(sh)
		}
		if ha := d.c.cfg.HedgeAfter; ha > 0 {
			var straggler *shard
			for _, sh := range d.shards {
				if sh.done || sh.inflight != 1 || sh.hedgedOnce || time.Since(sh.firstStart) < ha {
					continue
				}
				if straggler == nil || sh.firstStart.Before(straggler.firstStart) {
					straggler = sh
				}
			}
			if straggler != nil {
				straggler.hedgedOnce = true
				d.hedged++
				d.c.obsm.hedges.With().Inc()
				d.sp.Event("hedge", obs.Attr{Key: "shard", Val: int64(straggler.id)})
				return d.claimLocked(straggler)
			}
		}
		d.cond.Wait()
	}
}

// claimLocked books an attempt on sh and builds its cancelable context.
func (d *dispatcher) claimLocked(sh *shard) (*shard, int, context.Context, context.CancelFunc) {
	sh.inflight++
	sh.attempts++
	if sh.attempts == 1 {
		sh.firstStart = time.Now()
	}
	actx, cancel := context.WithCancel(d.jobCtx)
	sh.cancels = append(sh.cancels, cancel)
	return sh, sh.attempts, actx, cancel
}

// finish books an attempt's outcome and reports whether the worker
// should keep pulling shards.
func (d *dispatcher) finish(sh *shard, wk *worker, res shardResult, err error) bool {
	d.mu.Lock()
	sh.inflight--
	switch {
	case sh.done:
		// A losing hedge attempt (or one canceled at job end): discard.
		d.c.obsm.attempts.With(wk.url, "canceled").Inc()
		if err == nil {
			os.Remove(res.outPath)
		}
		d.mu.Unlock()
		return true
	case err == nil:
		sh.done = true
		sh.outPath = res.outPath
		sh.worker = wk.url
		sh.writes, sh.planWrites = res.writes, res.planWrites
		d.done++
		// Any other attempt on this shard is now wasted work: cancel it.
		for _, cancel := range sh.cancels {
			cancel()
		}
		d.c.obsm.attempts.With(wk.url, "ok").Inc()
		d.cond.Broadcast()
		d.mu.Unlock()
		wk.mu.Lock()
		wk.shards++
		wk.mu.Unlock()
		return true
	}
	// A failed attempt. A cancellation from losing a hedge race was
	// handled above (sh.done); a job-level cancel unwinds via jobCtx.
	d.c.obsm.attempts.With(wk.url, "error").Inc()
	if d.jobCtx.Err() != nil {
		d.mu.Unlock()
		return false
	}
	sh.failures++
	lastErr := err
	if sh.failures > d.c.cfg.Retries {
		d.err = fmt.Errorf("shard %d failed %d times; retry budget %d spent: %w",
			sh.id, sh.failures, d.c.cfg.Retries, lastErr)
		d.cond.Broadcast()
		d.mu.Unlock()
		d.cancelJob() // abort every other in-flight attempt
		return false
	}
	d.retried++
	d.c.obsm.retries.With(wk.url).Inc()
	d.sp.Event("retry", obs.Attr{Key: "shard", Val: int64(sh.id)},
		obs.Attr{Key: "failures", Val: int64(sh.failures)})
	d.pending = append(d.pending, sh)
	d.cond.Broadcast()
	d.mu.Unlock()
	wk.mu.Lock()
	wk.retries++
	wk.mu.Unlock()
	// Was the failure the shard's fault or the worker's? Re-probe: a
	// dead or unreachable worker leaves the job so the remaining fleet
	// absorbs its queue instead of burning the shard's retry budget.
	probeCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return wk.probe(probeCtx, d.c.cfg.probeTimeout)
}
