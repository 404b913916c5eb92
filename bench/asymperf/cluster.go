package main

// cluster-3w: cluster.New with 3 shards and no hedging, over 3
// in-process asymsortd workers, under two closed-loop clients sending
// binary contiguous-frame sort jobs that forward mem=65536 to every
// shard. Every record crosses four HTTP hops (client → coordinator →
// worker → coordinator → client), so the wire codec and the
// coordinator's stage/split/gather dominate.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"asymsort/internal/cluster"
	"asymsort/internal/obs"
)

const clusterWorkers = 3

type clusterEnv struct {
	dir     string
	workers []*daemon
	coord   *httptest.Server
	client  *http.Client
	sched   []*svcJob
	// firstIDs are each worker's first job id of the measured window;
	// coordFirst is the coordinator's.
	firstIDs   []int
	coordFirst int
	bytesBase  uint64
}

// coordStats is the part of the coordinator's GET /stats the harness
// reads.
type coordStats struct {
	Workers []cluster.WorkerStats `json:"workers"`
	Jobs    []cluster.JobStats    `json:"jobs"`
}

func clusterSetup(o *options, sc *scale, dir, traceDir string) (env, error) {
	bodies := filepath.Join(dir, "bodies")
	if err := os.MkdirAll(bodies, 0o755); err != nil {
		return nil, err
	}
	e := &clusterEnv{dir: dir, client: newClient()}
	path := fmt.Sprintf("/sort?mem=%d", sc.shardMem)
	for i := range sc.clusterPool {
		n := sizeAt(sc.clusterLo, sc.clusterHi, i, sc.clusterPool)
		b, err := writeBody(bodyPath(bodies, "cluster", i), n, uniform, contiguous, subSeed(o.seed, "cluster", i), false)
		if err != nil {
			return nil, err
		}
		e.sched = append(e.sched, &svcJob{
			class: "bulk", kernel: "sort", d: contiguous, b: b, path: path,
			exp: &expect{kernel: "sort", binary: true, n: n, sum: b.sum, ledger: true},
		})
	}

	var urls []string
	for i := range clusterWorkers {
		wt := ""
		if traceDir != "" {
			wt = filepath.Join(traceDir, fmt.Sprintf("worker%d", i))
		}
		d, err := startDaemon(sc.workerEnvelope, sc.svcBlock, 2, filepath.Join(dir, fmt.Sprintf("worker%d", i)), wt)
		if err != nil {
			e.close()
			return nil, err
		}
		e.workers = append(e.workers, d)
		urls = append(urls, d.hs.URL)
	}
	ct := ""
	if traceDir != "" {
		ct = filepath.Join(traceDir, "coordinator")
		if err := os.MkdirAll(ct, 0o755); err != nil {
			e.close()
			return nil, err
		}
	}
	coordDir := filepath.Join(dir, "coordinator")
	if err := os.MkdirAll(coordDir, 0o755); err != nil {
		e.close()
		return nil, err
	}
	c, err := cluster.New(cluster.Config{Workers: urls, Shards: clusterWorkers, TmpDir: coordDir, TraceDir: ct})
	if err != nil {
		e.close()
		return nil, err
	}
	e.coord = httptest.NewServer(c.Handler())
	var buf bytes.Buffer
	if warm := postJob(e.client, e.coord.URL, e.sched[0], nil, &buf); warm.err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up job: %w", warm.err)
	}
	return e, nil
}

// snapshot reads every worker's and the coordinator's /stats.
func (e *clusterEnv) snapshot() ([]*daemonStats, *coordStats, error) {
	var ws []*daemonStats
	for _, d := range e.workers {
		var s daemonStats
		if err := getJSON(e.client, d.hs.URL+"/stats", &s); err != nil {
			return nil, nil, err
		}
		ws = append(ws, &s)
	}
	var cs coordStats
	if err := getJSON(e.client, e.coord.URL+"/stats", &cs); err != nil {
		return nil, nil, err
	}
	return ws, &cs, nil
}

func workerBytes(cs *coordStats) uint64 {
	var t uint64
	for _, w := range cs.Workers {
		t += w.BytesSent + w.BytesReceived
	}
	return t
}

func (e *clusterEnv) run(d time.Duration, span *obs.Span) (*window, error) {
	ws0, cs0, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	e.firstIDs = e.firstIDs[:0]
	for _, s := range ws0 {
		e.firstIDs = append(e.firstIDs, len(s.Jobs))
	}
	e.coordFirst = len(cs0.Jobs)
	e.bytesBase = workerBytes(cs0)
	w := &window{}
	w.ops, w.makespan = closedLoop(d, e.sched, func(j *svcJob, buf *bytes.Buffer) op {
		return postJob(e.client, e.coord.URL, j, span, buf)
	})
	ws1, _, err := e.snapshot()
	if err != nil {
		return nil, err
	}
	var workerWrites uint64
	for i := range ws1 {
		r0, w0 := ws0[i].ledger()
		r1, w1 := ws1[i].ledger()
		w.reads += r1 - r0
		workerWrites += w1 - w0
	}
	for _, o := range w.ops {
		w.writes += o.writes
	}
	if workerWrites != w.writes {
		w.checks = append(w.checks, fmt.Errorf("coordinator headers carry %d block writes, worker ledgers %d", w.writes, workerWrites))
	}
	return w, nil
}

func (e *clusterEnv) layers(w *window) (map[string]float64, map[string]float64, error) {
	ws, cs, err := e.snapshot()
	if err != nil {
		return nil, nil, err
	}
	var ds []servedDaemon
	for i, s := range ws {
		ds = append(ds, servedDaemon{s, e.firstIDs[i], e.workers[i].trace})
	}
	recs := 0
	var inBytes int64
	for _, o := range w.ops {
		recs += o.recs
		inBytes += o.bytes
	}
	core, err := servedExtLayers(ds, w.reads, recs)
	if err != nil {
		return nil, nil, err
	}
	phases := map[string][]float64{}
	retries, hedges := 0, 0
	for _, j := range cs.Jobs {
		if j.ID < e.coordFirst {
			continue
		}
		retries += j.Retries
		hedges += j.Hedges
		for ph, v := range map[string]int64{"stage": j.StageMS, "split": j.SplitMS, "scatter": j.ScatterMS, "stream": j.StreamMS} {
			phases[ph] = append(phases[ph], float64(v))
		}
	}
	extra := map[string]float64{
		"cluster.retries":              float64(retries),
		"cluster.hedges":               float64(hedges),
		"cluster.bytes_per_input_byte": float64(workerBytes(cs)-e.bytesBase) / float64(inBytes),
	}
	for ph, v := range phases {
		extra["cluster."+ph+"_ms"] = median(v)
	}
	return core, extra, nil
}

func (e *clusterEnv) close() error {
	e.client.CloseIdleConnections()
	var err error
	if e.coord != nil {
		e.coord.Close()
		err = checkLeftovers(filepath.Join(e.dir, "coordinator"))
	}
	for _, d := range e.workers {
		if werr := d.stop(); err == nil {
			err = werr
		}
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}
