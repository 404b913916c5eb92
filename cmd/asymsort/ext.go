package main

// The ext model: sort a file larger than RAM with the internal/extmem
// engine. Under the default text dialect, keys are staged into a
// binary record file (payload = line index, so records are unique
// under seq.TotalLess as the engine requires), sorted under the memory
// budget, and streamed back out as text. Under -wire binary, input and
// output are internal/wire record frames: a chunked frame (or stdin)
// is spooled raw into the staged file with no parse, and a contiguous
// frame file skips staging entirely — the frame file itself is handed
// to the engine with Config.InSkip covering the header slot, so the
// staging write (the expensive op, charged ω in the paper's model)
// vanishes. Verification is streaming in every dialect — order check
// plus a record checksum against the input — since the whole point is
// that nothing here fits in memory.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
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

// extChunk is the record granularity of the CLI's staging and
// verification streams.
const extChunk = 1 << 15

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

	// Stage the input as a binary record file.
	staged := filepath.Join(tmpdir, fmt.Sprintf("asymsort-ext-%d-in", os.Getpid()))
	sortedBin := filepath.Join(tmpdir, fmt.Sprintf("asymsort-ext-%d-out", os.Getpid()))
	defer os.Remove(staged)
	defer os.Remove(sortedBin)

	var inSum checksum
	var src string
	engineIn := staged
	inSkip := 0
	start := time.Now()
	switch {
	case inPath != "" && binaryWire:
		src = inPath
		if src == "-" {
			src = "stdin"
		}
		zeroCopy, err := stageBinaryRecords(inPath, staged, &inSum)
		if err != nil {
			return err
		}
		if zeroCopy {
			// Contiguous seekable frame: the frame file IS the staged
			// input (header = one record slot, skipped via InSkip), so
			// staging cost only the verification read pass, no write.
			engineIn, inSkip = inPath, 1
			src += " (contiguous frame, staged in place)"
		}
	case inPath != "":
		src = inPath
		if src == "-" {
			src = "stdin"
		}
		if err := stageTextKeys(inPath, staged, &inSum); err != nil {
			return err
		}
	default:
		src = "generated uniform workload"
		if err := stageUniform(staged, n, seed, &inSum); err != nil {
			return err
		}
	}
	stageTime := time.Since(start)

	cfg := extmem.Config{
		Mem: memRecs, Block: blockRecs, K: k, Omega: float64(omega),
		FanIn: fanin, TmpDir: tmpdir, Procs: procs, InSkip: inSkip,
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

// stageBinaryRecords stages a wire frame as the engine's input. A
// seekable contiguous frame file needs no staging write at all — the
// header is exactly one record slot, so the frame file itself becomes
// the engine input (InSkip=1) and this function only streams the
// verification checksum. Chunked frames (and stdin, which cannot be
// handed over in place) are spooled raw into dst, folding each record
// into the checksum on the way past.
func stageBinaryRecords(inPath, dst string, sum *checksum) (zeroCopy bool, err error) {
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return false, err
		}
		hdrRaw := make([]byte, wire.HeaderBytes)
		_, rerr := io.ReadFull(f, hdrRaw)
		f.Close()
		if rerr != nil {
			return false, fmt.Errorf("%s: reading frame header: %v", inPath, rerr)
		}
		hdr, err := wire.ParseHeader(hdrRaw)
		if err != nil {
			return false, fmt.Errorf("%s: %v", inPath, err)
		}
		if hdr.Contiguous {
			return true, checksumContiguousFrame(inPath, hdr.Count, sum)
		}
	}
	var r io.Reader = os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return false, err
		}
		defer f.Close()
		r = f
	}
	fr, err := wire.NewReader(bufio.NewReaderSize(r, 1<<20))
	if err != nil {
		return false, err
	}
	out, err := os.Create(dst)
	if err != nil {
		return false, err
	}
	defer out.Close() // no-op after the explicit Close below
	bw := bufio.NewWriterSize(out, 1<<20)
	if _, err := fr.Spool(&recordSummer{w: bw, sum: sum}); err != nil {
		return false, err
	}
	if err := bw.Flush(); err != nil {
		return false, err
	}
	return false, out.Close()
}

// recordSummer folds every record that passes through it into the
// checksum, decoding through a small record buffer. wire.Reader.Spool
// always writes whole chunks of whole records, so writes arrive
// record-aligned.
type recordSummer struct {
	w    io.Writer
	sum  *checksum
	recs [256]seq.Record
}

func (rs *recordSummer) Write(p []byte) (int, error) {
	if len(p)%extmem.RecordBytes != 0 {
		return 0, fmt.Errorf("unaligned record payload write (%d bytes)", len(p))
	}
	for b := p; len(b) > 0; {
		recs := rs.recs[:min(len(rs.recs), len(b)/extmem.RecordBytes)]
		seq.Decode(recs, b)
		for _, r := range recs {
			rs.sum.add(r)
		}
		b = b[len(recs)*extmem.RecordBytes:]
	}
	return rs.w.Write(p)
}

// checksumContiguousFrame streams the payload of a contiguous frame
// file into the checksum — the only read the zero-copy handoff pays
// before the engine takes the file over.
func checksumContiguousFrame(path string, count int64, sum *checksum) error {
	bf, err := extmem.OpenBlockFile(path, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	if got := int64(bf.Len() - 1); got != count {
		return fmt.Errorf("%s: contiguous frame announces %d records but the file holds %d", path, count, got)
	}
	buf := make([]seq.Record, extChunk)
	for off := 1; off < bf.Len(); off += len(buf) {
		if rem := bf.Len() - off; rem < len(buf) {
			buf = buf[:rem]
		}
		if err := bf.ReadAt(off, buf); err != nil {
			return err
		}
		for _, r := range buf {
			sum.add(r)
		}
	}
	return nil
}

// stageTextKeys converts one-key-per-line text into a binary record
// file, payload = line index.
func stageTextKeys(inPath, dst string, sum *checksum) error {
	var r io.Reader = os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	bf, err := extmem.CreateBlockFile(dst, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	batch := make([]seq.Record, 0, extChunk)
	off, line := 0, 0
	flush := func() error {
		if err := bf.WriteAt(off, batch); err != nil {
			return err
		}
		off += len(batch)
		batch = batch[:0]
		return nil
	}
	for sc.Scan() {
		txt := sc.Text()
		line++
		if txt == "" {
			continue
		}
		key, err := strconv.ParseUint(txt, 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		rec := seq.Record{Key: key, Val: uint64(off + len(batch))}
		sum.add(rec)
		batch = append(batch, rec)
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush()
}

// stageUniform streams the seq.Uniform workload to a binary record file
// without materializing it: same key formula, bounded memory.
func stageUniform(dst string, n int, seed uint64, sum *checksum) error {
	bf, err := extmem.CreateBlockFile(dst, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	r := xrand.New(seed)
	batch := make([]seq.Record, 0, extChunk)
	for i := 0; i < n; i++ {
		rec := seq.Record{Key: (r.Next() << 24) | uint64(i)&0xffffff, Val: uint64(i)}
		sum.add(rec)
		batch = append(batch, rec)
		if len(batch) == cap(batch) {
			if err := bf.WriteAt(i+1-len(batch), batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return bf.WriteAt(n-len(batch), batch)
}

// verifySortedBinary streams the sorted binary file, checking key
// order and accumulating the checksum; when outPath is non-empty it
// simultaneously writes the output ('-' = stdout) — keys as text by
// default, or a contiguous wire frame (header + raw record bytes, no
// per-record encode beyond the LE packing) when binaryOut is set.
func verifySortedBinary(binPath, outPath string, binaryOut bool) (checksum, error) {
	var sum checksum
	bf, err := extmem.OpenBlockFile(binPath, 1, nil)
	if err != nil {
		return sum, err
	}
	defer bf.Close()

	var tw *bufio.Writer
	var tf *os.File // closed explicitly: close errors mean a truncated -out
	if outPath != "" {
		var w io.Writer = os.Stdout
		if outPath != "-" {
			f, err := os.Create(outPath)
			if err != nil {
				return sum, err
			}
			defer f.Close() // no-op after the explicit Close below
			tf = f
			w = f
		}
		tw = bufio.NewWriterSize(w, 1<<20)
		if binaryOut {
			if err := wire.WriteContiguousHeader(tw, int64(bf.Len())); err != nil {
				return sum, err
			}
		}
	}

	buf := make([]seq.Record, extChunk)
	var prev uint64
	have := false
	var line []byte
	for off := 0; off < bf.Len(); off += len(buf) {
		if rem := bf.Len() - off; rem < len(buf) {
			buf = buf[:rem]
		}
		if err := bf.ReadAt(off, buf); err != nil {
			return sum, err
		}
		for _, r := range buf {
			if have && r.Key < prev {
				return sum, fmt.Errorf("output not sorted at record %d: %d after %d", sum.n, r.Key, prev)
			}
			prev, have = r.Key, true
			sum.add(r)
			if tw != nil && !binaryOut {
				line = strconv.AppendUint(line[:0], r.Key, 10)
				line = append(line, '\n')
				if _, err := tw.Write(line); err != nil {
					return sum, err
				}
			}
		}
		if tw != nil && binaryOut {
			if _, err := tw.Write(seq.Encoded(buf)); err != nil {
				return sum, err
			}
		}
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return sum, err
		}
		if tf != nil {
			if err := tf.Close(); err != nil {
				return sum, fmt.Errorf("closing %s: %w", outPath, err)
			}
		}
	}
	return sum, nil
}

// parseSize and fmtBytes are the shared size helpers (serve owns the
// canonical implementation so asymsortd's -mem parses identically).
func parseSize(s string) (int64, error) { return serve.ParseSize(s) }

func fmtBytes(n int64) string { return serve.FmtBytes(n) }
