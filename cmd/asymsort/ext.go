package main

// The ext model: sort a file larger than RAM with the internal/extmem
// engine. Input is staged into a binary record file through serve's
// codec, the one the daemon stages request bodies with: text keys
// become records with payload = record index (blank lines are not
// numbered), so records are unique under seq.TotalLess as the engine
// requires, and under -wire binary a chunked frame (or any frame on
// stdin) is spooled raw, with no parse. A seekable contiguous frame
// file skips staging entirely — the frame file itself is handed to the
// engine with Config.InSkip covering the header slot, so the staging
// write (the expensive op, charged ω in the paper's model) vanishes.
// Verification is streaming in every dialect — order check plus a
// record checksum against the input — since the whole point is that
// nothing here fits in memory.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

// runExt drives one external sort end to end, funneling every failure
// through a single error return so the staging/spill cleanup defers in
// extRun always fire before the process exits.
func runExt(inPath, outPath, memFlag string, blockRecs int, omega uint64, k, fanin int,
	tmpdir string, n int, seed uint64, procs int, wireMode string) {
	if err := extRun(inPath, outPath, memFlag, blockRecs, omega, k, fanin, tmpdir, n, seed, procs, wireMode); err != nil {
		fmt.Fprintf(os.Stderr, "asymsort: %v\n", err)
		os.Exit(1)
	}
}

// checksum is an order-independent digest of a record multiset.
type checksum struct {
	n        int
	sum, xor uint64
}

func (c *checksum) add(r seq.Record) {
	h := xrand.Mix(r.Key ^ xrand.Mix(r.Val))
	c.n++
	c.sum += h
	c.xor ^= h
}

// extRun stages, sorts, verifies, and reports; its defers remove the
// staged record files (and an auto-created temp dir) on every path.
func extRun(inPath, outPath, memFlag string, blockRecs int, omega uint64, k, fanin int,
	tmpdir string, n int, seed uint64, procs int, wireMode string) error {
	binaryWire := false
	switch wireMode {
	case "", "text":
	case "binary":
		binaryWire = true
	default:
		return fmt.Errorf("bad -wire %q (text | binary)", wireMode)
	}
	memBytes, err := parseSize(memFlag)
	if err != nil {
		return fmt.Errorf("bad -mem: %v", err)
	}
	memRecs := int(memBytes / extmem.RecordBytes)

	if tmpdir == "" {
		tmpdir, err = os.MkdirTemp("", "asymsort-ext-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmpdir)
	} else if err := os.MkdirAll(tmpdir, 0o755); err != nil {
		return err
	}

	// Stage the input as a binary record file; the engine sorts records
	// [skip, skip+n) of engineIn.
	staged := filepath.Join(tmpdir, fmt.Sprintf("asymsort-ext-%d-in", os.Getpid()))
	sortedBin := filepath.Join(tmpdir, fmt.Sprintf("asymsort-ext-%d-out", os.Getpid()))
	defer os.Remove(staged)
	defer os.Remove(sortedBin)

	engineIn, skip := staged, 0
	src := "generated uniform workload"
	start := time.Now()
	if inPath == "" {
		err = stageUniform(staged, n, seed)
	} else {
		src = inPath
		if src == "-" {
			src = "stdin"
		}
		if engineIn, n, skip, err = stageInput(inPath, staged, binaryWire); engineIn == inPath {
			// Contiguous seekable frame: the frame file IS the staged
			// input (header = one record slot, skipped via InSkip), so
			// staging costs only the checksum read, no write.
			src += " (contiguous frame, staged in place)"
		}
	}
	if err != nil {
		return err
	}
	inSum, err := checksumRecords(engineIn, skip, skip+n)
	if err != nil {
		return err
	}
	stageTime := time.Since(start)

	cfg := extmem.Config{
		Mem: memRecs, Block: blockRecs, K: k, Omega: float64(omega),
		FanIn: fanin, TmpDir: tmpdir, Procs: procs, InSkip: skip,
	}
	fmt.Printf("external sort: n=%d records (%s) from %s\n",
		inSum.n, fmtBytes(int64(inSum.n)*extmem.RecordBytes), src)

	rep, err := extmem.Sort(cfg, engineIn, sortedBin)
	if err != nil {
		return err
	}
	fmt.Printf("  budget   : M=%d records (%s), B=%d records (%s), ω=%d\n",
		rep.Mem, fmtBytes(int64(rep.Mem)*extmem.RecordBytes),
		rep.Block, fmtBytes(int64(rep.Block)*extmem.RecordBytes), omega)
	fmt.Printf("  plan     : k=%d, fan-in=%d, %d runs, %d merge levels (Appendix A: ω/lg(M/B) admits k=%d)\n",
		rep.K, rep.FanIn, rep.Runs, rep.Levels,
		extmem.ChooseK(float64(omega), rep.Mem, rep.Block))
	engine := "sequential engine"
	if rep.Procs > 1 {
		engine = fmt.Sprintf("%d formation workers + %d-worker parallel merge", rep.Procs, rep.Procs)
	}
	fmt.Printf("  procs    : %d (%s)\n", rep.Procs, engine)
	for lvl, io := range rep.LevelIO {
		name := fmt.Sprintf("merge %d", lvl)
		if lvl == 0 {
			name = "runs"
		}
		fmt.Printf("  level %-8s: %10d block reads %10d block writes\n", name, io.Reads, io.Writes)
	}
	fmt.Printf("  total    : %d reads, %d writes, device cost R+ωW = %.0f\n",
		rep.Total.Reads, rep.Total.Writes, rep.Cost())
	fmt.Printf("  elapsed  : stage %v, run formation %v, merge %v\n",
		stageTime.Round(time.Millisecond), rep.FormTime.Round(time.Millisecond),
		rep.MergeTime.Round(time.Millisecond))
	// One greppable figure for scripts (the CI speedup gate): the
	// engine's own wall-clock, staging and verification excluded.
	fmt.Printf("  sort wall: %dms\n", (rep.FormTime + rep.MergeTime).Milliseconds())

	// Streaming verification: sorted order + multiset checksum.
	outSum, err := verifySortedBinary(sortedBin, outPath, binaryWire)
	if err != nil {
		return err
	}
	if outSum != inSum {
		return fmt.Errorf("INTERNAL ERROR: output is not a permutation of the input (checksum mismatch)")
	}
	fmt.Println("  output verified: sorted, record checksum matches input")
	if outPath != "" {
		what := "sorted keys"
		if binaryWire {
			what = "sorted records (contiguous frame)"
		}
		fmt.Printf("  wrote %d %s to %s\n", outSum.n, what, outPath)
	}
	return nil
}

// stageInput stages the file at inPath ('-' = stdin) in the -wire
// dialect through serve's codec into staged. It returns the file the
// engine reads — staged, or inPath itself for a seekable contiguous
// frame, read in place behind its header slot — with its payload
// count and leading skip.
func stageInput(inPath, staged string, binaryWire bool) (path string, n, skip int, err error) {
	f := os.Stdin
	if inPath != "-" {
		if f, err = os.Open(inPath); err != nil {
			return "", 0, 0, err
		}
		defer f.Close()
		if binaryWire {
			if n, ok, err := inPlaceFrame(f); ok || err != nil {
				return inPath, n, 1, err
			}
		}
	}
	n, skip, err = serve.Codec{Binary: binaryWire}.Stage(f, staged)
	return staged, n, skip, err
}

// inPlaceFrame reports whether f holds a contiguous frame, which the
// engine can read in place, and its record count, checked against f's
// length. Anything else — a chunked frame, or bytes that are no frame
// at all — is left to the codec to stage or reject.
func inPlaceFrame(f *os.File) (int, bool, error) {
	raw := make([]byte, wire.HeaderBytes)
	if _, err := f.ReadAt(raw, 0); err != nil {
		return 0, false, nil
	}
	hdr, err := wire.ParseHeader(raw)
	if err != nil || !hdr.Contiguous {
		return 0, false, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	if want := (hdr.Count + 1) * wire.RecordBytes; fi.Size() != want {
		return 0, false, fmt.Errorf("%s: contiguous frame of %d records needs %d bytes, the file holds %d",
			f.Name(), hdr.Count, want, fi.Size())
	}
	return int(hdr.Count), true, nil
}

// checksumRecords returns the checksum of records [lo, hi) of the
// record file at path.
func checksumRecords(path string, lo, hi int) (checksum, error) {
	var sum checksum
	bf, err := extmem.OpenBlockFile(path, 1, nil)
	if err != nil {
		return sum, err
	}
	defer bf.Close()
	err = extmem.ScanRecords(bf, lo, hi, func(r seq.Record) error {
		sum.add(r)
		return nil
	})
	return sum, err
}

// stageUniform streams the seq.Uniform workload to a binary record file
// without materializing it: same key formula, bounded memory.
func stageUniform(dst string, n int, seed uint64) error {
	bf, err := extmem.CreateBlockFile(dst, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	w := extmem.NewRunWriter(bf, 0, make([]seq.Record, 0, 1<<15))
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
		if err := w.Add(seq.Record{Key: (r.Next() << 24) | uint64(i)&0xffffff, Val: uint64(i)}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return bf.Close()
}

// verifySortedBinary streams the sorted binary file, checking key
// order and accumulating the checksum; when outPath is non-empty it
// simultaneously writes the output ('-' = stdout) — keys as text by
// default, or a contiguous wire frame when binaryOut is set.
func verifySortedBinary(binPath, outPath string, binaryOut bool) (checksum, error) {
	var sum checksum
	bf, err := extmem.OpenBlockFile(binPath, 1, nil)
	if err != nil {
		return sum, err
	}
	defer bf.Close()
	var out *recordWriter
	if outPath != "" {
		if out, err = createRecordWriter(outPath, binaryOut, false, bf.Len()); err != nil {
			return sum, err
		}
		defer out.close() // a no-op after the close below
	}
	var prev uint64
	err = extmem.ScanRecords(bf, 0, bf.Len(), func(r seq.Record) error {
		if sum.n > 0 && r.Key < prev {
			return fmt.Errorf("output not sorted at record %d: %d after %d", sum.n, r.Key, prev)
		}
		prev = r.Key
		sum.add(r)
		if out != nil {
			out.add(r)
		}
		return nil
	})
	if err == nil && out != nil {
		if err = out.close(); err != nil {
			err = fmt.Errorf("writing %s: %w", outPath, err)
		}
	}
	return sum, err
}

// parseSize and fmtBytes are the shared size helpers (serve owns the
// canonical implementation so asymsortd's -mem parses identically).
func parseSize(s string) (int64, error) { return serve.ParseSize(s) }

func fmtBytes(n int64) string { return serve.FmtBytes(n) }
