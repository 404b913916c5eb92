// Command asymsort sorts records under a chosen execution backend.
//
// The simulation models (ram, pram, aem, co) sort a generated workload
// and print the resulting cost ledger — a hands-on view of the paper's
// trade-offs. The native model runs the same algorithms on the rt
// runtime's hardware backend: real slices, a goroutine fork-join pool,
// and wall-clock instead of simulated cost, sorting either a generated
// workload or real data from a file or stdin.
//
// Usage:
//
//	asymsort -model ram  -n 100000 -omega 16
//	asymsort -model aem  -n 200000 -omega 16 -k 8 -algo merge
//	asymsort -model co   -n  65536 -omega 8
//	asymsort -model pram -n  65536 -omega 8
//
//	asymsort -model native -n 1000000 -algo co -compare
//	asymsort -model native -in keys.txt -out sorted.txt
//	generate-keys | asymsort -model native -in -
//
//	asymsort -model ext -in big.txt -out sorted.txt -mem 8MB
//	asymsort -model ext -n 10000000 -mem 4MB -omega 16 -tmpdir /mnt/scratch
//	asymsort -model ext -in big.txt -out sorted.txt -mem 8MB -procs 4
//	asymsort -model ext -wire binary -in recs.asrf -out sorted.asrf -mem 8MB
//
// Native and ext input is one unsigned 64-bit key per line (payload =
// record index; blank lines are not numbered); -out writes the sorted
// keys one per line. Both are internal/wire's text dialect. With
// -wire binary the ext model instead reads and writes internal/wire
// record frames: chunked frames and stdin are spooled raw into the
// staged file with no per-record parse, a contiguous frame file is
// handed to the engine in place (extmem.Config.InSkip skips the
// header slot — no staging copy at all), and -out emits a contiguous
// frame. The ext model runs the internal/extmem external-memory
// engine: it sorts files larger than RAM under the -mem budget,
// spilling sorted runs to -tmpdir and merging them at the fan-in the
// paper's Appendix A rule picks for the device's read/write cost ratio
// ω (override with -fanin), and reports the measured block-IO ledger
// next to wall-clock. With -procs P > 1 (the default is GOMAXPROCS)
// the engine forms runs on P workers, each with a private M-record
// buffer, and cuts every merge into P worker-private key ranges — the
// block-write ledger is identical to the sequential engine's at any P;
// -procs 1 selects the strictly sequential baseline.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
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
	"asymsort/internal/icache"
	"asymsort/internal/obs"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/wd"
	"asymsort/internal/wire"
)

func main() {
	var (
		model   = flag.String("model", "ram", "backend: ram | pram | aem | co (simulated) | native | ext")
		algo    = flag.String("algo", "", "aem: merge | sample | heap; native: merge | co | pram (default merge)")
		n       = flag.Int("n", 100000, "number of generated records (ignored with -in)")
		omega   = flag.Uint64("omega", 8, "write cost ω (structural under -model native; measured device read/write ratio under -model ext — see rt.Ctx.Omega)")
		k       = flag.Int("k", 4, "read-multiplier k (AEM models; 0 under ext = choose from ω)")
		m       = flag.Int("m", 4096, "primary memory M in records (AEM) / words (co)")
		b       = flag.Int("b", 64, "block size B in records/words (ext: device block in records)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		procs   = flag.Int("procs", 0, "native/ext workers (0 = GOMAXPROCS)")
		inPath  = flag.String("in", "", "native/ext input file of keys, one per line ('-' = stdin)")
		outPath = flag.String("out", "", "native/ext output file for sorted keys ('-' = stdout)")
		compare = flag.Bool("compare", false, "native: also time the single-worker run and slices-based sort")
		mem     = flag.String("mem", "64MB", "ext: primary-memory budget, e.g. 8MB, 512KB, or bytes")
		fanin   = flag.Int("fanin", 0, "ext: merge fan-in override (0 = kM/B from the Appendix A rule)")
		tmpdir  = flag.String("tmpdir", "", "ext: spill directory (default: a fresh dir under os.TempDir)")
		wireFmt = flag.String("wire", "text", "ext: -in/-out dialect: text (one key per line) | binary (record frames; a contiguous frame file is handed to the engine with no staging copy)")
		kname   = flag.String("kernel", "sort", "kernel to run: sort | semisort | histogram | top-k | merge-join (non-sort kernels take -model co | pram | native | ext)")
		buckets = flag.Int("buckets", 0, "histogram kernel: bucket count")
		topk    = flag.Int("topk", 0, "top-k kernel: selection size")
		left    = flag.Int("left", 0, "merge-join kernel: size of the left relation (the first records of the input)")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile of this run (one job, flags to finish) to the given file")
		version = flag.Bool("version", false, "print build info and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.ReadBuildInfo())
		return
	}
	// The profile-around-one-job hook: the whole run — staging, the
	// sort/kernel itself, verification, output — lands in one pprof
	// profile, the offline twin of asymsortd's -debug-addr listener.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymsort: bad -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "asymsort: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("  cpu profile written to %s\n", *cpuprof)
		}()
	}

	if *kname != "sort" {
		// -k keeps the sims' default of 4; under ext it means "choose
		// from ω" unless set explicitly (same rule as the sort path).
		extK := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "k" {
				extK = *k
			}
		})
		runKernel(kernelFlags{
			name: *kname, buckets: *buckets, topk: *topk, left: *left,
			model: *model, n: *n, m: *m, b: *b, omega: *omega, seed: *seed,
			procs: *procs, inPath: *inPath, outPath: *outPath,
			mem: *mem, k: extK, tmpdir: *tmpdir,
		})
		return
	}

	if *model != "ext" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "wire" {
				fmt.Fprintln(os.Stderr, "asymsort: -wire applies only to -model ext")
				os.Exit(2)
			}
		})
	}
	if *model == "native" {
		runNative(*algo, *n, *omega, *seed, *procs, *inPath, *outPath, *compare)
		return
	}
	if *model == "ext" {
		// -k keeps its AEM default of 4 for the simulated models; under
		// ext an unset -k means "choose from ω" (Appendix A), so only
		// forward it when the user said -k explicitly. -m is the
		// simulated models' memory knob — ext takes -mem (a byte size);
		// accepting -m silently would run a budget ~1000x off what the
		// user asked for, so reject it outright.
		extK := 0
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k":
				extK = *k
			case "m":
				fmt.Fprintln(os.Stderr, "asymsort: -m sets the simulated models' memory in records; -model ext takes -mem with a byte size (e.g. -mem 8MB)")
				os.Exit(2)
			}
		})
		runExt(*inPath, *outPath, *mem, *b, *omega, extK, *fanin, *tmpdir, *n, *seed, *procs, *wireFmt)
		return
	}

	in := seq.Uniform(*n, *seed)
	fmt.Printf("sorting n=%d uniform records, ω=%d, model=%s\n", *n, *omega, *model)

	var stats cost.Snapshot
	var extra string
	switch *model {
	case "ram":
		mem := aram.New(*omega)
		arr := aram.FromSlice(mem, in)
		base := mem.Stats()
		out := ramsort.TreeSort(arr)
		stats = mem.Stats().Sub(base)
		check(out.Unwrap(), in)
		extra = "element reads/writes (§3 tree-insertion sort)"
	case "pram":
		c := wd.NewRoot(*omega)
		arr := wd.NewArray[seq.Record](*n)
		copy(arr.Unwrap(), in)
		out := pramsort.Sort(c, arr, pramsort.Options{Seed: *seed, DeepSplit: true})
		check(out.Unwrap(), in)
		stats = c.Work()
		extra = fmt.Sprintf("depth=%d, Brent T(n,64)=%d (Theorem 3.2)", c.Depth(), c.BrentTime(64))
	case "aem":
		ma := aem.New(*m, *b, *omega, *m/(4**b)+8)
		f := ma.FileFrom(in)
		base := ma.Stats()
		var out *aem.File
		switch *algo {
		case "", "merge":
			out = aemsort.MergeSort(ma, f, *k)
		case "sample":
			out = aemsample.Sort(ma, f, *k, *seed)
		case "heap":
			out = buffertree.HeapSort(ma, f, *k)
		default:
			fmt.Fprintf(os.Stderr, "asymsort: unknown -algo %q\n", *algo)
			os.Exit(2)
		}
		stats = ma.Stats().Sub(base)
		check(out.Unwrap(), in)
		extra = fmt.Sprintf("block transfers at M=%d B=%d k=%d (§4)", *m, *b, *k)
	case "co":
		cache := icache.New(*b, *m / *b, *omega, icache.PolicyRWLRU)
		c := co.NewCtx(cache)
		arr := co.FromSlice(c, in)
		base := cache.Stats()
		out := cosort.Sort(c, arr, cosort.Options{Seed: *seed})
		cache.Flush()
		stats = cache.Stats().Sub(base)
		check(out.Unwrap(), in)
		extra = fmt.Sprintf("cache misses/write-backs under read-write LRU, depth=%d (§5.1)", c.WD.Depth())
	default:
		fmt.Fprintf(os.Stderr, "asymsort: unknown -model %q\n", *model)
		os.Exit(2)
	}

	fmt.Printf("  reads  = %d\n", stats.Reads)
	fmt.Printf("  writes = %d\n", stats.Writes)
	fmt.Printf("  cost   = reads + ω·writes = %d\n", stats.Cost(*omega))
	fmt.Printf("  R/W    = %s\n", ratio(stats))
	fmt.Printf("  note   : %s\n", extra)
}

// runNative sorts on the hardware backend and reports wall-clock.
func runNative(algo string, n int, omega, seed uint64, procs int, inPath, outPath string, compare bool) {
	if algo == "" {
		algo = "merge"
	}
	alg, ok := exp.LookupNativeAlgo(algo)
	if !ok {
		fmt.Fprintf(os.Stderr, "asymsort: unknown native -algo %q (merge | co | pram)\n", algo)
		os.Exit(2)
	}
	var in []seq.Record
	var src string
	if inPath != "" {
		var err error
		in, err = readKeys(inPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "asymsort: %v\n", err)
			os.Exit(1)
		}
		src = inPath
		if src == "-" {
			src = "stdin"
		}
	} else {
		in = seq.Uniform(n, seed)
		src = "generated uniform workload"
	}
	pool := rt.NewPool(procs)
	sortWith := func(p *rt.Pool) []seq.Record {
		return alg.Run(p, in, seed, omega)
	}

	fmt.Printf("sorting n=%d records from %s, model=native, algo=%s, procs=%d\n",
		len(in), src, algo, pool.Procs())
	start := time.Now()
	out := sortWith(pool)
	elapsed := time.Since(start)
	check(out, in)
	rate := float64(len(in)) / elapsed.Seconds() / 1e6
	fmt.Printf("  elapsed    = %v (%.2f Mrec/s)\n", elapsed, rate)

	if compare {
		start = time.Now()
		sortWith(rt.NewPool(1))
		serial := time.Since(start)
		fmt.Printf("  1 worker   = %v (speedup %.2fx on %d workers)\n",
			serial, serial.Seconds()/elapsed.Seconds(), pool.Procs())
		ref := append([]seq.Record(nil), in...)
		start = time.Now()
		rt.SortRecords(rt.NewPool(1), ref)
		fmt.Printf("  slices ref = %v (sequential slices-based sort)\n", time.Since(start))
	}
	if outPath != "" {
		if err := writeRecords(outPath, out, false); err != nil {
			fmt.Fprintf(os.Stderr, "asymsort: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %d sorted keys to %s\n", len(out), outPath)
	}
}

// readKeys reads one unsigned 64-bit key per line ('-' = stdin); the
// payload is the record index, preserving the repository-wide unique
// (key, payload) pairs.
func readKeys(path string) ([]seq.Record, error) {
	f := os.Stdin
	if path != "-" {
		var err error
		if f, err = os.Open(path); err != nil {
			return nil, err
		}
		defer f.Close()
	}
	tr := wire.NewTextReader(f, false)
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

// recordWriter writes records to an -out destination ('-' = stdout)
// through a 1 MiB buffer: as text lines — bare keys, or "key value"
// lines when withVals is set — or, when binary, as a contiguous frame.
// Write errors stick in the buffer and surface at close.
type recordWriter struct {
	bw               *bufio.Writer
	f                *os.File
	binary, withVals bool
	one              [1]seq.Record
}

// createRecordWriter opens path for n records (n is announced in a
// binary frame's header).
func createRecordWriter(path string, binary, withVals bool, n int) (*recordWriter, error) {
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return nil, err
		}
	}
	w := &recordWriter{bw: bufio.NewWriterSize(f, 1<<20), f: f, binary: binary, withVals: withVals}
	if binary {
		if err := wire.WriteContiguousHeader(w.bw, int64(n)); err != nil {
			w.close()
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
	if w.f == nil {
		return nil
	}
	err := w.bw.Flush()
	if w.f != os.Stdout {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	w.f = nil
	return err
}

// writeRecords writes recs to path ('-' = stdout) as text lines.
func writeRecords(path string, recs []seq.Record, withVals bool) error {
	w, err := createRecordWriter(path, false, withVals, len(recs))
	if err != nil {
		return err
	}
	for _, r := range recs {
		w.add(r)
	}
	return w.close()
}

func ratio(s cost.Snapshot) string {
	if s.Writes == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(s.Reads)/float64(s.Writes))
}

func check(out, in []seq.Record) {
	if !seq.IsSorted(out) || !seq.IsPermutation(out, in) {
		fmt.Fprintln(os.Stderr, "asymsort: INTERNAL ERROR: output not a sorted permutation")
		os.Exit(1)
	}
	fmt.Println("  output verified: sorted permutation of input")
}
