package main

// The ext model: run a kernel's external-memory composition over a
// file larger than RAM. Input is staged into a binary record file
// through serve's codec, the one the daemon stages request bodies
// with: text keys become records with payload = record index (blank
// lines are not numbered), so records are unique under seq.TotalLess
// as the engine requires, and under -wire binary a chunked frame (or
// any frame on stdin) is spooled raw, with no parse. A seekable
// contiguous frame file skips staging entirely — the frame file itself
// is handed to the engine with Config.InSkip covering the header slot,
// so the staging write (the expensive op, charged ω in the paper's
// model) vanishes. Every kernel's measured block writes must equal its
// composition's plan. Sort verifies by streaming — order check plus a
// record checksum against the input — since the whole point is that
// nothing here fits in memory; the other kernels' outputs are compared
// with the kernel's in-memory reference over the staged input.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/kernel"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
	"asymsort/internal/xrand"
)

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

// ext stages, runs, verifies, and reports; its defers remove the
// staged record files (and an auto-created temp dir) on every path.
func (j *job) ext() error {
	tmpdir := j.tmpdir
	if tmpdir == "" {
		var err error
		if tmpdir, err = os.MkdirTemp("", "asymsort-ext-"); err != nil {
			return err
		}
		defer os.RemoveAll(tmpdir)
	} else if err := os.MkdirAll(tmpdir, 0o755); err != nil {
		return err
	}
	staged := filepath.Join(tmpdir, fmt.Sprintf("asymsort-ext-%d-in", os.Getpid()))
	outBin := filepath.Join(tmpdir, fmt.Sprintf("asymsort-ext-%d-out", os.Getpid()))
	defer os.Remove(staged)
	defer os.Remove(outBin)

	// The kernel reads records [skip, skip+n) of engineIn.
	start := time.Now()
	engineIn, n, skip, src, err := j.stage(staged)
	if err != nil {
		return err
	}
	var inSum checksum
	if j.k.Name == "sort" {
		if inSum, err = checksumRecords(engineIn, skip, skip+n); err != nil {
			return err
		}
	}
	stageTime := time.Since(start)
	fmt.Fprintf(j.w, "external %s: n=%d records (%s) from %s\n",
		j.k.Name, n, serve.FmtBytes(int64(n)*extmem.RecordBytes), src)

	cfg := extmem.Config{
		Mem: j.mem, Block: j.b, K: j.rk, Omega: float64(j.omega),
		FanIn: j.fanin, TmpDir: tmpdir, Procs: j.procs, InSkip: skip,
	}
	start = time.Now()
	res, err := j.k.Ext(cfg, engineIn, outBin, j.p)
	if err != nil {
		return err
	}
	if err := j.report(res, stageTime, time.Since(start)); err != nil {
		return err
	}
	if j.k.Name == "sort" {
		return j.verifySorted(outBin, res.OutN, inSum)
	}
	in, err := readRecords(engineIn, skip, skip+n)
	if err != nil {
		return err
	}
	out, err := readRecords(outBin, 0, res.OutN)
	if err != nil {
		return err
	}
	return j.finish(out, j.k.Ref(in, j.p))
}

// report prints the ext run's budget, each sort's plan and level
// ledger, the total ledger and the wall times, and fails the run when
// the measured block writes differ from the composition's plan.
func (j *job) report(res *kernel.ExtResult, stageTime, kernelTime time.Duration) error {
	mem := j.mem - j.mem%j.b
	fmt.Fprintf(j.w, "  budget   : M=%d records (%s), B=%d records (%s), ω=%d\n",
		mem, serve.FmtBytes(int64(mem)*extmem.RecordBytes),
		j.b, serve.FmtBytes(int64(j.b)*extmem.RecordBytes), j.omega)
	var form, merge time.Duration
	for _, rep := range res.Sorts {
		fmt.Fprintf(j.w, "  plan     : k=%d, fan-in=%d, %d runs, %d merge levels (Appendix A: ω/lg(M/B) admits k=%d)\n",
			rep.K, rep.FanIn, rep.Runs, rep.Levels,
			extmem.ChooseK(float64(j.omega), rep.Mem, rep.Block))
		engine := "sequential engine"
		if rep.Procs > 1 {
			engine = fmt.Sprintf("%d formation workers + %d-worker parallel merge", rep.Procs, rep.Procs)
		}
		fmt.Fprintf(j.w, "  procs    : %d (%s)\n", rep.Procs, engine)
		for lvl, io := range rep.LevelIO {
			name := fmt.Sprintf("merge %d", lvl)
			if lvl == 0 {
				name = "runs"
			}
			fmt.Fprintf(j.w, "  level %-8s: %10d block reads %10d block writes\n", name, io.Reads, io.Writes)
		}
		form += rep.FormTime
		merge += rep.MergeTime
	}
	fmt.Fprintf(j.w, "  total    : %d reads, %d writes, device cost R+ωW = %d\n",
		res.Total.Reads, res.Total.Writes, res.Total.Cost(j.omega))
	if res.Total.Writes != res.PlanWrites {
		return fmt.Errorf("INTERNAL ERROR: measured %d block writes, the composition's plan says %d",
			res.Total.Writes, res.PlanWrites)
	}
	fmt.Fprintf(j.w, "  planned  : %d block writes, equal to the measured ledger\n", res.PlanWrites)
	fmt.Fprintf(j.w, "  elapsed  : stage %v, kernel %v (run formation %v, merge %v)\n",
		stageTime.Round(time.Millisecond), kernelTime.Round(time.Millisecond),
		form.Round(time.Millisecond), merge.Round(time.Millisecond))
	// One greppable figure for scripts (the CI speedup gate): the
	// engine's own sorting wall-clock, staging and verification
	// excluded.
	fmt.Fprintf(j.w, "  sort wall: %dms\n", (form + merge).Milliseconds())
	return nil
}

// stage stages -in in the -wire dialect through serve's codec into
// staged, or generates -n records there. It returns the file the
// engine reads — staged, or -in itself for a seekable contiguous
// frame, read in place behind its header slot — with its payload
// count, leading skip, and the report's name for the input.
func (j *job) stage(staged string) (path string, n, skip int, src string, err error) {
	if j.inPath == "" {
		return staged, j.n, 0, "generated uniform workload", stageUniform(staged, j.n, j.seed)
	}
	r, f, src, err := j.source()
	if err != nil {
		return "", 0, 0, "", err
	}
	defer f.Close()
	if f != nil && j.binary {
		if n, ok, err := inPlaceFrame(f); ok || err != nil {
			return j.inPath, n, 1, src + " (contiguous frame, staged in place)", err
		}
	}
	n, skip, err = serve.Codec{Binary: j.binary}.Stage(r, staged)
	return staged, n, skip, src, err
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

// scanRecords calls fn on records [lo, hi) of the record file at path,
// uncharged.
func scanRecords(path string, lo, hi int, fn func(seq.Record) error) error {
	bf, err := extmem.OpenBlockFile(path, 1, nil)
	if err != nil {
		return err
	}
	defer bf.Close()
	return extmem.ScanRecords(bf, lo, hi, fn)
}

// checksumRecords returns the checksum of records [lo, hi) of the
// record file at path.
func checksumRecords(path string, lo, hi int) (checksum, error) {
	var sum checksum
	err := scanRecords(path, lo, hi, func(r seq.Record) error {
		sum.add(r)
		return nil
	})
	return sum, err
}

// readRecords reads records [lo, hi) of the record file at path.
func readRecords(path string, lo, hi int) ([]seq.Record, error) {
	recs := make([]seq.Record, 0, hi-lo)
	err := scanRecords(path, lo, hi, func(r seq.Record) error {
		recs = append(recs, r)
		return nil
	})
	return recs, err
}

// verifySorted streams the sorted file of n records, checking key
// order and that its checksum equals the input's, and writes it to
// -out on the way.
func (j *job) verifySorted(path string, n int, inSum checksum) error {
	var out *recordWriter
	if j.outPath != "" {
		var err error
		if out, err = j.create(n); err != nil {
			return err
		}
		defer out.close() // a no-op after the close below
	}
	var sum checksum
	var prev uint64
	err := scanRecords(path, 0, n, func(r seq.Record) error {
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
	if err != nil {
		return err
	}
	if sum != inSum {
		return fmt.Errorf("INTERNAL ERROR: output is not a permutation of the input (checksum mismatch)")
	}
	fmt.Fprintln(j.w, "  output verified: sorted, record checksum matches input")
	if out == nil {
		return nil
	}
	if err := out.close(); err != nil {
		return err
	}
	fmt.Fprintf(j.w, "  wrote %d records to %s\n", n, j.outPath)
	return nil
}
