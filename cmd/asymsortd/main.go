// Command asymsortd is the long-running kernel service: it admits many
// concurrent kernel jobs (sort, semisort, histogram, top-k,
// merge-join) over HTTP and makes them share one machine-wide resource
// envelope — the paper's (M, B, ω) — through the budget broker of
// internal/serve, instead of each job assuming it owns the box.
//
// Usage:
//
//	asymsortd -addr :8077 -mem 8MB -b 64 -omega 16
//	asymsortd -addr 127.0.0.1:0 -mem 64MB -procs 4 -tmpdir /mnt/scratch
//	asymsortd -addr :8077 -trace-dir /tmp/traces -debug-addr 127.0.0.1:6060
//
// Coordinator mode turns the same binary into a cluster front-end: it
// range-partitions each /sort job across a fleet of plain asymsortd
// workers and streams back output byte-identical to a solo run (see
// internal/cluster and docs/OPERATIONS.md):
//
//	asymsortd -coordinator -workers http://h1:8077,http://h2:8077,http://h3:8077
//	asymsortd -coordinator -workers ... -shards 12 -retries 3 -hedge 2s
//
// API (see internal/serve for the full contract):
//
//	POST /v1/{kernel}?model=auto|ext|native&mem=<records>
//	     kernel params: buckets= (histogram), k= (top-k),
//	     left= (merge-join); body: one decimal uint64 key per line →
//	     result "key value" lines, streamed (binary record frames on
//	     both legs via Content-Type/Accept)
//	POST /sort     the sort kernel under its historical route,
//	               byte-identical responses
//	GET  /stats    broker + per-job + per-kernel JSON (grants, queue,
//	               IO ledgers, simulated-plan write counts, wall times,
//	               live jobs' current phase)
//	GET  /healthz  liveness JSON: status ok|draining, uptime, leases,
//	               build info (module version, vcs revision)
//	GET  /metrics  Prometheus text exposition: jobs, queue, grants,
//	               pool occupancy, block IO by level, HTTP traffic
//
// -mem is the global budget shared by every job (a byte size; divided
// by the 16-byte record footprint). Under backpressure the default
// adaptive broker admits queued jobs by priority and deadline
// (X-Asymsortd-Priority / X-Asymsortd-Deadline headers, or priority= /
// deadline= query params) with size-proportional fair shares and
// anti-starvation aging; -admission fifo restores the legacy pure
// arrival order. Leases shrink/grow at merge-level boundaries as load
// changes — the adaptive policy picks shrink victims by observed merge
// progress — and a disconnected client cancels its job: the engine
// aborts and its spill files are removed. -omega is a prior: the
// daemon measures the device's real write/read cost ratio from every
// job's timed block IO (EWMA, persisted in -tmpdir), blends it with
// the flag, and picks each ext job's fan-in k from the blend (-omega 0
// trusts the measurement alone; see the asymsortd_tuning_* metrics and
// the /stats "tuning" section). cmd/asymload is the matching
// deterministic load generator.
//
// Observability: -trace-dir exports every job's span tree as JSONL and
// Chrome trace-event JSON (open the latter at https://ui.perfetto.dev);
// -debug-addr serves net/http/pprof on a second listener, kept off the
// service port so profiling is opt-in and never exposed with the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"asymsort/internal/cluster"
	"asymsort/internal/extmem"
	"asymsort/internal/kernel"
	"asymsort/internal/obs"
	"asymsort/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8077", "listen address (host:port; :0 picks a free port)")
		mem       = flag.String("mem", "64MB", "global memory budget shared by all jobs, e.g. 8MB")
		block     = flag.Int("b", 64, "device block size in records (the model's B)")
		omega     = flag.Float64("omega", 8, "prior write/read cost ratio ω, blended with the live measurement (0 = fully measured; picks k when -k 0)")
		k         = flag.Int("k", 0, "ext read multiplier (0 = choose from ω, Appendix A)")
		procs     = flag.Int("procs", 0, "machine worker count shared by all jobs (0 = GOMAXPROCS)")
		tmpdir    = flag.String("tmpdir", "", "job staging/spill directory (default os.TempDir)")
		admission = flag.String("admission", "adaptive", "broker scheduling policy: adaptive (priority/deadline-aware, size-proportional shares) or fifo (legacy arrival order)")
		traceDir  = flag.String("trace-dir", "", "export each job's trace there as JSONL + Chrome trace-event JSON (empty = tracing off)")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty = pprof off)")
		version   = flag.Bool("version", false, "print build info and exit")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a job engine")
		workers     = flag.String("workers", "", "comma-separated worker base URLs (coordinator mode; required)")
		shards      = flag.Int("shards", 0, "range shards per job (coordinator mode; 0 = one per worker)")
		retries     = flag.Int("retries", 2, "re-dispatch budget per failed shard (coordinator mode)")
		hedge       = flag.Duration("hedge", 0, "re-dispatch a shard in flight longer than this to an idle worker (coordinator mode; 0 = off)")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuildInfo())
		return
	}
	var err error
	if *coordinator {
		err = runCoordinator(*addr, *workers, *shards, *retries, *hedge, *tmpdir, *traceDir, *debugAddr)
	} else {
		err = run(*addr, *mem, *block, *omega, *k, *procs, *tmpdir, *traceDir, *debugAddr, *admission)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "asymsortd: %v\n", err)
		os.Exit(1)
	}
}

// runCoordinator serves the cluster front-end: the handler scatters
// /sort jobs across the worker fleet instead of running them here.
func runCoordinator(addr, workersFlag string, shards, retries int, hedge time.Duration, tmpdir, traceDir, debugAddr string) error {
	var urls []string
	for _, u := range strings.Split(workersFlag, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("coordinator mode needs -workers url1,url2,...")
	}
	coord, err := cluster.New(cluster.Config{
		Workers: urls, Shards: shards, Retries: retries, HedgeAfter: hedge,
		TmpDir: tmpdir, TraceDir: traceDir, Metrics: obs.NewRegistry(),
	})
	if err != nil {
		return err
	}
	return serveUntilSignal(addr, debugAddr, traceDir, coord.Handler(), func(bound net.Addr) {
		fmt.Printf("asymsortd: coordinating on %s\n", bound)
		fmt.Printf("  workers  : %s\n", strings.Join(urls, " · "))
		fmt.Printf("  dispatch : shards=%d retries=%d hedge=%v\n", max(shards, len(urls)), retries, hedge)
		fmt.Printf("  endpoints: POST /sort · GET /stats · GET /healthz · GET /metrics\n")
	}, nil)
}

func run(addr, memFlag string, block int, omega float64, k, procs int, tmpdir, traceDir, debugAddr, admission string) error {
	memBytes, err := serve.ParseSize(memFlag)
	if err != nil {
		return fmt.Errorf("bad -mem: %v", err)
	}
	memRecs := int(memBytes / extmem.RecordBytes)
	var fifo bool
	switch admission {
	case "adaptive", "":
	case "fifo":
		fifo = true
	default:
		return fmt.Errorf("bad -admission %q (want adaptive or fifo)", admission)
	}

	// One registry for the whole process: the broker's envelope gauges
	// and the job engine's job/IO/HTTP metrics share the /metrics scrape.
	reg := obs.NewRegistry()
	broker, err := serve.NewBroker(serve.BrokerConfig{
		Mem: memRecs, Procs: procs, MinLease: 16 * block, Metrics: reg, FIFO: fifo,
	})
	if err != nil {
		return err
	}
	defer broker.Close()
	srv, err := serve.NewServer(serve.ServerConfig{
		Broker: broker, Block: block, Omega: omega, K: k, TmpDir: tmpdir,
		Metrics: reg, TraceDir: traceDir,
	})
	if err != nil {
		return err
	}
	stats := broker.Stats()
	// The drain hook, SetDraining, flips /healthz to "draining" while
	// jobs finish.
	err = serveUntilSignal(addr, debugAddr, traceDir, srv.Handler(), func(bound net.Addr) {
		fmt.Printf("asymsortd: listening on %s\n", bound)
		fmt.Printf("  envelope : M=%d records (%s), B=%d records, ω prior=%g (live-measured), procs=%d, min lease %d records\n",
			stats.TotalMem, memFlag, block, omega, stats.Procs, stats.MinLease)
		fmt.Printf("  admission: %s\n", admission)
		fmt.Printf("  kernels  : %s\n", strings.Join(kernel.Names(), " · "))
		fmt.Printf("  endpoints: POST /v1/{kernel} · POST /sort · GET /stats · GET /healthz · GET /metrics\n")
	}, srv.SetDraining)
	if err != nil {
		return err
	}
	// Only a clean drain persists the ω estimator, so the next start
	// begins warm from costs no still-running job can change.
	srv.Close()
	return nil
}

// serveUntilSignal makes the trace dir, listens on addr, prints the
// banner with the bound address, and serves h until SIGINT or SIGTERM.
// It then runs onDrain (when non-nil) and waits up to 30 s for
// in-flight jobs; nil means they all finished. With debugAddr set,
// net/http/pprof rides on its own listener (DefaultServeMux carries its
// registrations), so the profiling surface is only reachable where
// -debug-addr points, typically loopback.
func serveUntilSignal(addr, debugAddr, traceDir string, h http.Handler, banner func(net.Addr), onDrain func()) error {
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o777); err != nil {
			return fmt.Errorf("bad -trace-dir: %v", err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	banner(ln.Addr())
	if traceDir != "" {
		fmt.Printf("  tracing  : per-job JSONL + Chrome traces in %s\n", traceDir)
	}
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("bad -debug-addr: %v", err)
		}
		fmt.Printf("  pprof    : http://%s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, nil)
		defer dln.Close()
	}
	httpSrv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Printf("asymsortd: %v — draining jobs and shutting down\n", s)
		if onDrain != nil {
			onDrain()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown with jobs still in flight: %w", err)
		}
		return nil
	}
}
