// Command asymsort runs one registry kernel — sort by default, or
// semisort, histogram, top-k or merge-join (-kernel) — under a chosen
// execution backend.
//
// The simulation models (ram, pram, aem, co) run the kernel on a
// metered machine and print its cost ledger — a hands-on view of the
// paper's trade-offs. Sort runs its own algorithms there (§3 tree
// sort, Algorithm 1, the §4 AEM sorts, the §5.1 low-depth sort); every
// other kernel runs its rt definition on co and pram, and ram and aem
// run sort only. The native model runs the kernel on the rt runtime's
// hardware backend (real slices, a goroutine fork-join pool) and
// reports wall-clock. The ext model runs the kernel's external-memory
// composition over files larger than RAM and reports the measured
// block-IO ledger.
//
// Usage:
//
//	asymsort -model ram  -n 100000 -omega 16
//	asymsort -model aem  -n 200000 -omega 16 -k 8 -algo merge
//	asymsort -model co   -n  65536 -omega 8
//	asymsort -model pram -n  65536 -omega 8 -in keys.txt -out sorted.txt
//
//	asymsort -model native -n 1000000 -algo co -compare
//	asymsort -model native -in keys.txt -out sorted.txt
//	generate-keys | asymsort -model native -in -
//
//	asymsort -model ext -in big.txt -out sorted.txt -mem 8MB
//	asymsort -model ext -n 10000000 -mem 4MB -omega 16 -tmpdir /mnt/scratch
//	asymsort -model ext -in big.txt -out sorted.txt -mem 8MB -procs 4
//	asymsort -model ext -wire binary -in recs.asrf -out sorted.asrf -mem 8MB
//	asymsort -kernel semisort -model ext -in big.txt -mem 8MB -fanin 16
//	asymsort -kernel top-k -topk 100 -model co -n 65536
//
// Every model reads -in or, without it, generates -n uniform records.
// Input is one unsigned 64-bit key per line (payload = record index;
// blank lines are not numbered), internal/wire's text dialect. -out
// writes the result in the same dialect: bare keys for sort, "key
// value" lines for the other kernels. With -out - the result goes to
// stdout and the report to stderr.
//
// With -wire binary the ext model instead reads and writes
// internal/wire record frames: chunked frames and stdin are spooled
// raw into the staged file with no per-record parse, a contiguous
// frame file is handed to the engine in place (extmem.Config.InSkip
// skips the header slot — no staging copy at all), and -out emits a
// contiguous frame. The ext model sorts under the -mem budget,
// spilling sorted runs to -tmpdir and merging them at the fan-in the
// paper's Appendix A rule picks for the device's read/write cost ratio
// ω (override with -fanin). With -procs P > 1 (the default is
// GOMAXPROCS) the engine forms runs on P workers, each with a private
// M-record buffer, and cuts every merge into P worker-private key
// ranges — the block-write ledger is identical to the sequential
// engine's at any P; -procs 1 selects the strictly sequential
// baseline.
//
// Every run verifies its output: the in-memory models and the non-sort
// ext kernels against the kernel's in-memory reference, the ext sort
// by a streaming order and record-checksum check. An ext run also
// requires its measured block writes to equal the composition's plan.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"asymsort/internal/aem"
	"asymsort/internal/aram"
	"asymsort/internal/co"
	"asymsort/internal/core/aemsample"
	"asymsort/internal/core/aemsort"
	"asymsort/internal/core/buffertree"
	"asymsort/internal/core/cosort"
	"asymsort/internal/core/pramsort"
	"asymsort/internal/core/ramsort"
	"asymsort/internal/cost"
	"asymsort/internal/exp"
	"asymsort/internal/extmem"
	"asymsort/internal/icache"
	"asymsort/internal/kernel"
	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wd"
	"asymsort/internal/wire"
)

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "asymsort: %v\n", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError marks a bad command line: main exits 2 on it and 1 on any
// other error.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// job is one run: the kernel, its parameters, the flags the models
// read, and where the records and the report go.
type job struct {
	k       *kernel.Kernel
	p       kernel.Params
	model   string
	algo    string
	n       int
	omega   uint64
	rk      int // read multiplier k: aem's, or ext's (0 = choose from ω)
	m       int
	b       int
	seed    uint64
	procs   int
	inPath  string
	outPath string
	compare bool
	mem     int // ext: the -mem budget in records
	fanin   int
	tmpdir  string
	binary  bool // ext: -wire binary

	stdin  io.Reader
	stdout io.Writer // the records under -out -
	w      io.Writer // the report: stdout, or stderr under -out -
}

// run parses args, rejects a command line no model runs as asked
// before anything is read or written, and runs the job. Records for
// -in - come from stdin; the report goes to stdout, or to stderr when
// -out - sends the records to stdout.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	j := &job{stdin: stdin, stdout: stdout, w: stdout}
	var kname, mem, wireFmt, cpuprof string
	var version bool
	fs := flag.NewFlagSet("asymsort", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&j.model, "model", "ram", "backend: ram | pram | aem | co (simulated) | native | ext")
	fs.StringVar(&kname, "kernel", "sort", "kernel to run: sort | semisort | histogram | top-k | merge-join (ram and aem run sort only)")
	fs.StringVar(&j.algo, "algo", "merge", "sort's algorithm: aem merge | sample | heap; native merge | co | pram")
	fs.IntVar(&j.n, "n", 100000, "number of generated records (ignored with -in)")
	fs.Uint64Var(&j.omega, "omega", 8, "write cost ω (structural under -model native; measured device read/write ratio under -model ext — see rt.Ctx.Omega)")
	fs.IntVar(&j.rk, "k", 4, "read-multiplier k (aem; ext: unset = choose from ω)")
	fs.IntVar(&j.m, "m", 4096, "primary memory M in records (aem) / words (co); ext takes -mem")
	fs.IntVar(&j.b, "b", 64, "block size B in records/words (aem, co; ext: device block in records)")
	fs.Uint64Var(&j.seed, "seed", 1, "workload seed")
	fs.IntVar(&j.procs, "procs", 0, "native/ext workers (0 = GOMAXPROCS)")
	fs.StringVar(&j.inPath, "in", "", "input file of keys, one per line ('-' = stdin; unset = generate -n records)")
	fs.StringVar(&j.outPath, "out", "", "output file for the result ('-' = stdout, and the report goes to stderr)")
	fs.BoolVar(&j.compare, "compare", false, "native: also time the one-worker run beside the in-memory reference")
	fs.StringVar(&mem, "mem", "64MB", "ext: primary-memory budget, e.g. 8MB, 512KB, or bytes")
	fs.IntVar(&j.fanin, "fanin", 0, "ext: merge fan-in override (0 = kM/B from the Appendix A rule)")
	fs.StringVar(&j.tmpdir, "tmpdir", "", "ext: spill directory (default: a fresh dir under os.TempDir)")
	fs.StringVar(&wireFmt, "wire", "text", "ext: -in/-out dialect: text (one key per line) | binary (record frames; a contiguous frame file is handed to the engine with no staging copy)")
	fs.IntVar(&j.p.Buckets, "buckets", 0, "histogram kernel: bucket count")
	fs.IntVar(&j.p.K, "topk", 0, "top-k kernel: selection size")
	fs.IntVar(&j.p.LeftN, "left", 0, "merge-join kernel: size of the left relation (the first records of the input)")
	fs.StringVar(&cpuprof, "cpuprofile", "", "write a CPU profile of this run (one job, flags to finish) to the given file")
	fs.BoolVar(&version, "version", false, "print build info and exit")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if version {
		fmt.Fprintln(stdout, obs.ReadBuildInfo())
		return nil
	}

	var ok bool
	if j.k, ok = kernel.Get(kname); !ok {
		return usagef("unknown -kernel %q (%s)", kname, strings.Join(kernel.Names(), " | "))
	}
	switch j.model {
	case "ram", "aem":
		if j.k.Name != "sort" {
			return usagef("-model %s runs sort only; -kernel %s takes -model co | pram | native | ext", j.model, j.k.Name)
		}
	case "pram", "co", "native", "ext":
	default:
		return usagef("unknown -model %q (ram | pram | aem | co | native | ext)", j.model)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["wire"] && j.model != "ext":
		return usagef("-wire applies only to -model ext")
	case set["m"] && j.model == "ext":
		// A budget ~1000x off what was asked is worse than an error.
		return usagef("-m sets the simulated models' memory in records; -model ext takes -mem with a byte size (e.g. -mem 8MB)")
	case j.n < 0:
		return usagef("bad -n %d (want ≥ 0)", j.n)
	case j.b < 1:
		return usagef("bad -b %d (want ≥ 1)", j.b)
	}
	algos := map[string]string{"aem": "merge sample heap", "native": "merge co pram"}
	if list, ok := algos[j.model]; ok && !slices.Contains(strings.Fields(list), j.algo) {
		return usagef("unknown -algo %q for -model %s (%s)", j.algo, j.model, list)
	}
	switch wireFmt {
	case "text":
	case "binary":
		j.binary = true
	default:
		return usagef("bad -wire %q (text | binary)", wireFmt)
	}
	if j.model == "ext" {
		// -k keeps aem's default of 4; under ext an unset -k means
		// "choose from ω" (Appendix A).
		if !set["k"] {
			j.rk = 0
		}
		size, err := serve.ParseSize(mem)
		if err != nil {
			return usagef("bad -mem: %v", err)
		}
		j.mem = int(size / extmem.RecordBytes)
	}
	if j.outPath == "-" {
		j.w = stderr
	}

	// The profile-around-one-job hook: the whole run — staging, the
	// kernel itself, verification, output — lands in one pprof
	// profile, the offline twin of asymsortd's -debug-addr listener.
	// It is stopped on every return, a failing run's included.
	if cpuprof != "" {
		f, err := os.Create(cpuprof)
		if err != nil {
			return fmt.Errorf("bad -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(j.w, "  cpu profile written to %s\n", cpuprof)
		}()
	}
	if j.model == "ext" {
		return j.ext()
	}
	return j.inMemory()
}

// inMemory reads the input, runs the kernel on a simulated model or
// the native backend, verifies the output against the kernel's
// in-memory reference, and writes -out.
func (j *job) inMemory() error {
	var in []seq.Record
	src := "generated uniform workload"
	if j.inPath == "" {
		in = seq.Uniform(j.n, j.seed)
	} else {
		r, f, name, err := j.source()
		if err != nil {
			return err
		}
		defer f.Close()
		if in, err = readKeys(r); err != nil {
			return err
		}
		src = name
	}
	if err := j.k.Check(len(in), j.p); err != nil {
		return err
	}
	start := time.Now()
	want := j.k.Ref(in, j.p)
	refTime := time.Since(start)
	fmt.Fprintf(j.w, "%s: n=%d records from %s, model=%s, ω=%d\n", j.k.Name, len(in), src, j.model, j.omega)

	if j.model == "native" {
		return j.finish(j.native(in, refTime), want)
	}
	return j.finish(j.simulate(in), want)
}

// finish requires out to equal the kernel's in-memory reference, record
// for record, and writes it to -out.
func (j *job) finish(out, want []seq.Record) error {
	if !slices.Equal(out, want) {
		return fmt.Errorf("INTERNAL ERROR: %d output records diverge from the in-memory reference's %d", len(out), len(want))
	}
	fmt.Fprintf(j.w, "  output verified: %d records match the in-memory reference\n", len(out))
	if j.outPath == "" {
		return nil
	}
	w, err := j.create(len(out))
	if err != nil {
		return err
	}
	for _, r := range out {
		w.add(r)
	}
	if err := w.close(); err != nil {
		return err
	}
	fmt.Fprintf(j.w, "  wrote %d records to %s\n", len(out), j.outPath)
	return nil
}

// simulate runs the kernel on a metered model — sort's own algorithms,
// or any other kernel's rt definition on co and pram — and prints the
// model's ledger.
func (j *job) simulate(in []seq.Record) []seq.Record {
	sort := j.k.Name == "sort"
	var out []seq.Record
	var stats cost.Snapshot
	var note string
	switch j.model {
	case "ram":
		mem := aram.New(j.omega)
		arr := aram.FromSlice(mem, in)
		base := mem.Stats()
		out = ramsort.TreeSort(arr).Unwrap()
		stats = mem.Stats().Sub(base)
		note = "element reads/writes (§3 tree-insertion sort)"
	case "pram":
		t := wd.NewRoot(j.omega)
		if sort {
			arr := wd.NewArray[seq.Record](len(in))
			copy(arr.Unwrap(), in)
			out = pramsort.Sort(t, arr, pramsort.Options{Seed: j.seed, DeepSplit: true}).Unwrap()
		} else {
			c := rt.NewSimWD(t)
			out = j.k.Run(c, rt.FromSlice[seq.Record](c, in), j.p).Unwrap()
		}
		stats = t.Work()
		note = fmt.Sprintf("depth=%d, Brent T(n,64)=%d (Theorem 3.2)", t.Depth(), t.BrentTime(64))
	case "aem":
		ma := aem.New(j.m, j.b, j.omega, j.m/(4*j.b)+8)
		f := ma.FileFrom(in)
		base := ma.Stats()
		switch j.algo {
		case "merge":
			f = aemsort.MergeSort(ma, f, j.rk)
		case "sample":
			f = aemsample.Sort(ma, f, j.rk, j.seed)
		case "heap":
			f = buffertree.HeapSort(ma, f, j.rk)
		}
		stats = ma.Stats().Sub(base)
		out = f.Unwrap()
		note = fmt.Sprintf("block transfers at M=%d B=%d k=%d (§4)", j.m, j.b, j.rk)
	case "co":
		cache := icache.New(j.b, j.m/j.b, j.omega, icache.PolicyRWLRU)
		c := co.NewCtx(cache)
		base := cache.Stats()
		if sort {
			arr := co.FromSlice(c, in)
			base = cache.Stats()
			out = cosort.Sort(c, arr, cosort.Options{Seed: j.seed}).Unwrap()
		} else {
			rc := rt.NewSimCO(c)
			out = j.k.Run(rc, rt.FromSlice[seq.Record](rc, in), j.p).Unwrap()
		}
		cache.Flush()
		stats = cache.Stats().Sub(base)
		note = fmt.Sprintf("cache misses/write-backs under read-write LRU, depth=%d (§5.1)", c.WD.Depth())
	}
	ratio := "inf"
	if stats.Writes > 0 {
		ratio = fmt.Sprintf("%.2f", float64(stats.Reads)/float64(stats.Writes))
	}
	fmt.Fprintf(j.w, "  reads  = %d\n", stats.Reads)
	fmt.Fprintf(j.w, "  writes = %d\n", stats.Writes)
	fmt.Fprintf(j.w, "  cost   = reads + ω·writes = %d\n", stats.Cost(j.omega))
	fmt.Fprintf(j.w, "  R/W    = %s\n", ratio)
	fmt.Fprintf(j.w, "  note   : %s\n", note)
	return out
}

// native runs the kernel on the rt hardware backend — sort through its
// -algo — and prints wall-clock; -compare adds the one-worker run and
// the reference's time.
func (j *job) native(in []seq.Record, refTime time.Duration) []seq.Record {
	alg, _ := exp.LookupNativeAlgo(j.algo)
	runOn := func(pool *rt.Pool) []seq.Record {
		if j.k.Name == "sort" {
			return alg.Run(pool, in, j.seed, j.omega)
		}
		c := rt.NewNative(pool, j.omega)
		return j.k.Run(c, rt.WrapSlice[seq.Record](c, in), j.p).Unwrap()
	}
	pool := rt.NewPool(j.procs)
	start := time.Now()
	out := runOn(pool)
	elapsed := time.Since(start)
	fmt.Fprintf(j.w, "  procs      = %d\n", pool.Procs())
	fmt.Fprintf(j.w, "  elapsed    = %v (%.2f Mrec/s)\n", elapsed, float64(len(in))/elapsed.Seconds()/1e6)
	if j.compare {
		start = time.Now()
		runOn(rt.NewPool(1))
		serial := time.Since(start)
		fmt.Fprintf(j.w, "  1 worker   = %v (speedup %.2fx on %d workers)\n",
			serial, serial.Seconds()/elapsed.Seconds(), pool.Procs())
		fmt.Fprintf(j.w, "  reference  = %v (the kernel's sequential in-memory reference)\n", refTime)
	}
	return out
}

// source opens -in: stdin for "-", the named file otherwise. f is the
// opened file, nil for stdin (f.Close is safe to call either way);
// name is how the report names the input.
func (j *job) source() (r io.Reader, f *os.File, name string, err error) {
	if j.inPath == "-" {
		return j.stdin, nil, "stdin", nil
	}
	f, err = os.Open(j.inPath)
	return f, f, j.inPath, err
}

// readKeys reads one unsigned 64-bit key per line; the payload is the
// record index, preserving the repository-wide unique (key, payload)
// pairs.
func readKeys(r io.Reader) ([]seq.Record, error) {
	tr := wire.NewTextReader(r, false)
	var recs []seq.Record
	buf := make([]seq.Record, 1<<12)
	for {
		n, err := tr.ReadRecords(buf)
		recs = append(recs, buf[:n]...)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// recordWriter writes records to -out through a 1 MiB buffer: as text
// lines — bare keys for sort, "key value" lines for the other kernels
// — or, under -wire binary, as a contiguous frame. Write errors stick
// in the buffer and surface at close.
type recordWriter struct {
	bw               *bufio.Writer
	f                *os.File // the -out file; nil for stdout
	path             string
	binary, withVals bool
	one              [1]seq.Record
}

// create opens -out ('-' = the job's stdout) for n records (n is
// announced in a binary frame's header).
func (j *job) create(n int) (*recordWriter, error) {
	w := &recordWriter{path: j.outPath, binary: j.binary, withVals: j.k.Name != "sort"}
	dst := j.stdout
	if j.outPath != "-" {
		f, err := os.Create(j.outPath)
		if err != nil {
			return nil, err
		}
		w.f, dst = f, f
	}
	w.bw = bufio.NewWriterSize(dst, 1<<20)
	if w.binary {
		if err := wire.WriteContiguousHeader(w.bw, int64(n)); err != nil {
			w.f.Close() // nil for stdout, where Close does nothing
			return nil, err
		}
	}
	return w, nil
}

func (w *recordWriter) add(r seq.Record) {
	if w.binary {
		w.one[0] = r
		w.bw.Write(seq.Encoded(w.one[:]))
		return
	}
	w.bw.Write(wire.AppendLine(w.bw.AvailableBuffer(), r, w.withVals))
}

// close flushes and closes the destination, reporting the first write
// error; later calls return nil.
func (w *recordWriter) close() error {
	if w.bw == nil {
		return nil
	}
	err := w.bw.Flush()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	w.bw = nil
	if err != nil {
		return fmt.Errorf("writing %s: %w", w.path, err)
	}
	return nil
}
