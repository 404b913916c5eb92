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
	"errors"
	"flag"
	"fmt"
	"io"
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

// readHeaderTimeout bounds how long a connection may take to send its
// request header before the server closes it, so a client that opens
// connections and never finishes a header cannot hold a goroutine and a
// file descriptor each. It is fixed, not a flag; tests lower it.
var readHeaderTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "asymsortd: %v\n", err)
		os.Exit(1)
	}
}

// run parses args, builds the job engine (or, with -coordinator, the
// cluster front-end), makes the trace dir, listens, prints the banner
// with the bound address to stdout, and serves until ctx is done. It
// then flips /healthz to "draining" and waits up to 30 s for in-flight
// jobs; nil means they all finished. Flag errors return before
// anything listens. With -debug-addr set, net/http/pprof rides on its
// own listener (DefaultServeMux carries its registrations), so the
// profiling surface is only reachable where -debug-addr points,
// typically loopback.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("asymsortd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "127.0.0.1:8077", "listen address (host:port; :0 picks a free port)")
		mem       = fs.String("mem", "64MB", "global memory budget shared by all jobs, e.g. 8MB")
		block     = fs.Int("b", 64, "device block size in records (the model's B)")
		omega     = fs.Float64("omega", 8, "prior write/read cost ratio ω, blended with the live measurement (0 = fully measured; picks k when -k 0)")
		k         = fs.Int("k", 0, "ext read multiplier (0 = choose from ω, Appendix A)")
		procs     = fs.Int("procs", 0, "machine worker count shared by all jobs (0 = GOMAXPROCS)")
		tmpdir    = fs.String("tmpdir", "", "job staging/spill directory (default os.TempDir)")
		admission = fs.String("admission", "adaptive", "broker scheduling policy: adaptive (priority/deadline-aware, size-proportional shares) or fifo (legacy arrival order)")
		traceDir  = fs.String("trace-dir", "", "export each job's trace there as JSONL + Chrome trace-event JSON (empty = tracing off)")
		debugAddr = fs.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty = pprof off)")
		version   = fs.Bool("version", false, "print build info and exit")

		coordinator = fs.Bool("coordinator", false, "run as a cluster coordinator instead of a job engine")
		workers     = fs.String("workers", "", "comma-separated worker base URLs (coordinator mode; required)")
		shards      = fs.Int("shards", 0, "range shards per job (coordinator mode; 0 = one per worker)")
		retries     = fs.Int("retries", 2, "re-dispatch budget per failed shard, at least 1 (coordinator mode)")
		hedge       = fs.Duration("hedge", 0, "re-dispatch a shard in flight longer than this to an idle worker (coordinator mode; 0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, obs.ReadBuildInfo())
		return nil
	}
	// Each role rejects the flags only the other role reads, so a flag
	// is never dropped in silence.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	other, where := []string{"workers", "shards", "retries", "hedge"}, "only with -coordinator"
	if *coordinator {
		other, where = []string{"mem", "b", "omega", "k", "procs", "admission"}, "only to a job engine, not with -coordinator"
	}
	for _, name := range other {
		if set[name] {
			return fmt.Errorf("-%s applies %s", name, where)
		}
	}

	var (
		h    http.Handler
		srv  *serve.Server // nil in coordinator mode
		role = "listening"
		info strings.Builder // the banner below its first line
	)
	if *coordinator {
		// The handler scatters /sort jobs across the worker fleet
		// instead of running them here.
		if *retries < 1 {
			return fmt.Errorf("bad -retries %d (want ≥ 1)", *retries)
		}
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 {
			return fmt.Errorf("coordinator mode needs -workers url1,url2,...")
		}
		coord, err := cluster.New(cluster.Config{
			Workers: urls, Shards: *shards, Retries: *retries, HedgeAfter: *hedge,
			TmpDir: *tmpdir, TraceDir: *traceDir, Metrics: obs.NewRegistry(),
		})
		if err != nil {
			return err
		}
		cfg := coord.Config()
		h, role = coord.Handler(), "coordinating"
		fmt.Fprintf(&info, "  workers  : %s\n", strings.Join(cfg.Workers, " · "))
		fmt.Fprintf(&info, "  dispatch : shards=%d retries=%d hedge=%v\n", cfg.Shards, cfg.Retries, cfg.HedgeAfter)
		fmt.Fprintf(&info, "  endpoints: POST /sort · GET /stats · GET /healthz · GET /metrics\n")
	} else {
		memBytes, err := serve.ParseSize(*mem)
		if err != nil {
			return fmt.Errorf("bad -mem: %v", err)
		}
		var fifo bool
		switch *admission {
		case "adaptive", "":
		case "fifo":
			fifo = true
		default:
			return fmt.Errorf("bad -admission %q (want adaptive or fifo)", *admission)
		}
		// One registry for the whole process: the broker's envelope
		// gauges and the job engine's job/IO/HTTP metrics share the
		// /metrics scrape.
		reg := obs.NewRegistry()
		broker, err := serve.NewBroker(serve.BrokerConfig{
			Mem: int(memBytes / extmem.RecordBytes), Procs: *procs, MinLease: 16 * *block, Metrics: reg, FIFO: fifo,
		})
		if err != nil {
			return err
		}
		if srv, err = serve.NewServer(serve.ServerConfig{
			Broker: broker, Block: *block, Omega: *omega, K: *k, TmpDir: *tmpdir,
			Metrics: reg, TraceDir: *traceDir,
		}); err != nil {
			return err
		}
		h = srv.Handler()
		stats := broker.Stats()
		fmt.Fprintf(&info, "  envelope : M=%d records (%s), B=%d records, ω prior=%g (live-measured), procs=%d, min lease %d records\n",
			stats.TotalMem, *mem, *block, *omega, stats.Procs, stats.MinLease)
		fmt.Fprintf(&info, "  admission: %s\n", *admission)
		fmt.Fprintf(&info, "  kernels  : %s\n", strings.Join(kernel.Names(), " · "))
		fmt.Fprintf(&info, "  endpoints: POST /v1/{kernel} · POST /sort · GET /stats · GET /healthz · GET /metrics\n")
	}

	if *tmpdir != "" {
		if err := os.MkdirAll(*tmpdir, 0o777); err != nil {
			return fmt.Errorf("bad -tmpdir: %v", err)
		}
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o777); err != nil {
			return fmt.Errorf("bad -trace-dir: %v", err)
		}
		fmt.Fprintf(&info, "  tracing  : per-job JSONL + Chrome traces in %s\n", *traceDir)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "asymsortd: %s on %s\n%s", role, ln.Addr(), &info)
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("bad -debug-addr: %v", err)
		}
		fmt.Fprintf(stdout, "  pprof    : http://%s/debug/pprof/\n", dln.Addr())
		go http.Serve(dln, nil)
		defer dln.Close()
	}
	httpSrv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(stdout, "asymsortd: draining jobs and shutting down\n")
	if srv != nil {
		srv.SetDraining()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown with jobs still in flight: %w", err)
	}
	if srv == nil {
		return nil
	}
	// The drain persists the ω estimator after the last job, so the
	// next start begins warm (each ext job also saves it as it ends).
	return srv.Close()
}
