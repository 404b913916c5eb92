// Package asymsort is a reproduction of Blelloch, Fineman, Gibbons, Gu,
// and Shun, "Sorting with Asymmetric Read and Write Costs" (SPAA 2015;
// arXiv:1603.03505): write-efficient sorting algorithms, the asymmetric
// memory-model simulators they are analyzed on, and a native execution
// backend that runs the same algorithms at hardware speed.
//
// The library lives under internal/ (see README.md for the full map).
// Execution is layered on the dual-backend runtime of internal/rt: the
// paper's parallel algorithms are written once against rt's fork-join
// surface (Parallel, ParFor, instrumented arrays) and run on either
//
//   - a metered simulator backend — the Asymmetric Ideal-Cache +
//     work-depth substrate (internal/co, internal/icache, internal/wd)
//     or the PRAM work-depth ledger (internal/wd, internal/prim) — which
//     produces every Q₁/work/depth number the experiment tables report, or
//   - the native backend — real Go slices on a goroutine fork-join pool —
//     which sorts real data with real parallel speedup (cmd/asymsort
//     -model native).
//
// The remaining layers:
//
//   - internal/aram, internal/wd — Asymmetric RAM and PRAM (work-depth)
//   - internal/aem — Asymmetric External Memory (block transfers, strict M)
//   - internal/extmem — the Section 4 external sort on real files: a
//     disk-backed engine (instrumented block IO, loser-tree k-way merge
//     at fan-in kM/B, a streaming post-pass hook the kernel
//     compositions ride) that sorts files larger than RAM and whose
//     measured block-write ledger matches the simulated AEM machine's
//     level-for-level (cmd/asymsort -model ext). With -procs P > 1 it
//     runs the paper's P-processor machine: P run-formation workers
//     each read, select, sort and write their own leaves on a private
//     M-record buffer, each merge is cut by exact
//     splitter bounds into P worker-private key ranges merged through
//     private loser trees refilling from mapped spill files, and each
//     worker writes its range synchronously in 128 KiB stages — output
//     and write ledger identical at every P, asserted by
//     internal/integration at P ∈ {1, 4}. Records move as bytes:
//     internal/seq's codec views a record slice as its on-disk bytes on
//     little-endian hosts, so every block transfer is one copy or one
//     syscall
//   - internal/icache, internal/co — Asymmetric Ideal-Cache + the
//     low-depth cache-oblivious execution substrate
//   - internal/core/... — the paper's algorithms: §3 RAM/PRAM sorts,
//     §4 AEM mergesort/sample sort/buffer-tree heapsort, §5 cache-oblivious
//     sort, FFT, and matrix multiplication (§3's pramsort and §5.1's
//     cosort are rt-ported and run on both backends)
//   - internal/kernel — the kernel registry: sort, semisort
//     (reduce-by-key), histogram, top-k, and merge-join, each defined
//     once with an rt implementation (so it runs metered or native), an
//     external-memory composition built from extmem's phases (run
//     formation, planned k-way merge, streaming post-pass) whose
//     measured block-write ledger must equal its own plan, and an
//     in-memory reference every backend is differentially verified
//     against. cmd/asymsort -kernel runs any of them on co, pram,
//     native or ext (ram and aem run sort only);
//     asymbench -exp kernels measures each against its executed classic
//     sort-based baseline; examples/kernels walks semisort and top-k
//     through the sim and ext backends
//   - internal/serve — the kernel service: a budget Broker that owns one
//     machine-wide (M, P) envelope — the global memory budget in
//     records and the shared rt.Pool worker tokens — and leases
//     per-job (Mᵢ, Pᵢ) slices with adaptive admission (aged priority,
//     deadlines and ask-proportional shares by default; -admission
//     fifo is its arrival-order baseline), backpressure,
//     grow/shrink rebalancing at merge-level boundaries
//     (extmem.Config.Lease), and cancellation that reclaims spill
//     files and grants; plus the generic HTTP job engine (POST
//     /v1/{kernel} runs any registry kernel with params in the query
//     or headers, POST /sort is the byte-identical alias of /v1/sort,
//     both streaming newline-delimited text or internal/wire binary
//     record frames both ways; GET /stats serves per-job and
//     per-kernel measured-vs-plan write ledgers, GET /healthz the
//     drain/lease state). cmd/asymsortd is the daemon; cmd/asymload
//     the deterministic seeded load generator that drives it in either
//     dialect (-wire text|binary|mixed) and over any kernel pool
//     (-kernels, with non-sort responses verified against client-side
//     references), verifies every response on the wire, and prints
//     recordable throughput/latency tables with per-wire-mode p50/p99
//     quantiles
//   - internal/wire — both record dialects: newline-decimal text (a
//     line appender and a batch reader; bare keys get payload = record
//     index, blank lines are not numbered), and the binary columnar
//     record frame (content type application/x-asymsort-records): a
//     16-byte header plus length-prefixed chunks or a contiguous raw
//     payload of 16-byte little-endian records, the zero-parse hot
//     path of the service.
//     The header is exactly one record slot, so a contiguous frame
//     file doubles as a valid extmem record file and is handed to the
//     external engine in place (extmem.Config.InSkip) with no staging
//     copy — asymsort -model ext -wire binary reads and writes frames
//     from files and stdin
//   - internal/cluster — the distributed sort: a coordinator
//     (asymsortd -coordinator -workers ...) that stages a /sort job,
//     samples it for splitters with the same extmem machinery the
//     parallel merge uses per-core, range-partitions it into shards
//     shipped as contiguous record frames to unmodified asymsortd
//     workers, and gathers the sorted shards in range order — output
//     byte-identical to a solo run, with bounded per-shard retry,
//     hedged straggler re-dispatch, and its own /stats, /healthz, and
//     /metrics surfaces. asymload -cluster drives and verifies it
//   - internal/exp — the experiment harness regenerating every theorem's
//     table (run via cmd/asymbench or the benchmarks in bench_test.go),
//     plus the native, ext and kernels wall-clock tables. The
//     benchmark of record is bench/asymperf, its own module, which CI's
//     bench job runs on every push to main
//
// The benchmarks in this directory (bench_test.go) regenerate each
// experiment under `go test -bench` and time the native backend against
// the stdlib sort; cmd/asymbench runs the tables at full size with
// formatted output (`-exp native` for the hardware wall-clock table).
//
// docs/ARCHITECTURE.md draws the layer map and data flow and states
// the three invariants the test suite holds (measured writes ==
// planned writes, cross-backend differential identity, solo ==
// cluster byte-identity); docs/OPERATIONS.md covers running solo and
// cluster deployments, every CLI flag, wire negotiation, the metric
// catalogue, and failure modes.
package asymsort
