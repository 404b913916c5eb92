package main

// Layer probes and hardware ceilings, run once per traced run on fixed
// seeded inputs in the workload's tmpdir. Each probe calls one layer's
// public API in isolation; each ceiling does the same work with the
// least machinery the hardware allows (copy, raw pread/pwrite,
// slices.SortFunc), so a layer's number reads against its limit.

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/rt"
	"asymsort/internal/seq"
	"asymsort/internal/serve"
	"asymsort/internal/wire"
)

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// rate times fn probeReps times and returns the median of units/second.
func rate(units float64, fn func() error) (float64, error) {
	var rs []float64
	for range probeReps {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		rs = append(rs, units/time.Since(start).Seconds())
	}
	return median(rs), nil
}

func runProbes(dir string, sc *scale) (map[string]float64, error) {
	out := map[string]float64{}
	set := func(name string, units float64, fn func() error) error {
		v, err := rate(units, fn)
		out[name] = v
		return err
	}
	recs := make([]seq.Record, sc.probeRecs)
	newRecGen(uniform, 1).fill(recs)
	nBytes := float64(sc.probeRecs * extmem.RecordBytes)
	gb := nBytes / 1e9

	// Ceilings: memcpy and raw 1 MiB pread/pwrite on the same tmpdir.
	src := make([]byte, sc.probeRecs*extmem.RecordBytes)
	wire.EncodeRecords(src, recs)
	dst := make([]byte, len(src))
	if err := set("ceiling.memcpy_gb_s", gb, func() error { copy(dst, src); return nil }); err != nil {
		return nil, err
	}
	raw := filepath.Join(dir, "raw.bin")
	f, err := os.Create(raw)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	const ioUnit = 1 << 20
	if err := set("ceiling.pwrite_gb_s", gb, func() error {
		for off := 0; off < len(src); off += ioUnit {
			if _, err := f.WriteAt(src[off:min(off+ioUnit, len(src))], int64(off)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := set("ceiling.pread_gb_s", gb, func() error {
		for off := 0; off < len(dst); off += ioUnit {
			if _, err := f.ReadAt(dst[off:min(off+ioUnit, len(dst))], int64(off)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// BlockFile: sequential one-block transfers, charged to a ledger.
	var stats extmem.IOStats
	bf, err := extmem.CreateBlockFile(filepath.Join(dir, "block.bin"), sc.extBlock, &stats)
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	if err := set("extmem.blockfile_write_gb_s", gb, func() error {
		for off := 0; off < len(recs); off += sc.extBlock {
			if err := bf.WriteAt(off, recs[off:min(off+sc.extBlock, len(recs))]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := set("extmem.blockfile_read_gb_s", gb, func() error {
		// Reading back into recs rewrites the same records.
		for off := 0; off < len(recs); off += sc.extBlock {
			if err := bf.ReadAt(off, recs[off:min(off+sc.extBlock, len(recs))]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Leaf sorts: rt.SortRecords on one formation run (M records) and on
	// a small served job's size, against slices.SortFunc.
	pool := rt.NewPool(runtime.GOMAXPROCS(0))
	sortRate := func(name string, n int, sortFn func([]seq.Record)) error {
		batches := max(1, sc.probeRecs/n/8)
		work := make([]seq.Record, n)
		return set(name, float64(batches*n)/1e6, func() error {
			for b := range batches {
				copy(work, recs[b*n:(b+1)*n])
				sortFn(work)
			}
			return nil
		})
	}
	if err := sortRate("rt.sort_m_mrec_s", sc.extMem, func(r []seq.Record) { rt.SortRecords(pool, r) }); err != nil {
		return nil, err
	}
	if err := sortRate("rt.sort_small_mrec_s", sc.sortSmall, func(r []seq.Record) { rt.SortRecords(pool, r) }); err != nil {
		return nil, err
	}
	if err := sortRate("ceiling.slices_sort_small_mrec_s", sc.sortSmall, func(r []seq.Record) {
		slices.SortFunc(r, seq.TotalCompare)
	}); err != nil {
		return nil, err
	}

	// wire: Writer, Reader and Spool over an in-memory chunked frame of
	// codecRecs records.
	codec := recs[:min(sc.codecRecs, len(recs))]
	var frame bytes.Buffer
	writeFrame := func(w io.Writer) error {
		fw, err := wire.NewWriter(w, int64(len(codec)))
		if err != nil {
			return err
		}
		for lo := 0; lo < len(codec); lo += genChunk {
			if err := fw.WriteRecords(codec[lo:min(lo+genChunk, len(codec))]); err != nil {
				return err
			}
		}
		return fw.Close()
	}
	if err := writeFrame(&frame); err != nil {
		return nil, err
	}
	frameGB := float64(frame.Len()) / 1e9
	if err := set("wire.encode_gb_s", frameGB, func() error { return writeFrame(io.Discard) }); err != nil {
		return nil, err
	}
	dec := make([]seq.Record, genChunk)
	if err := set("wire.decode_gb_s", frameGB, func() error {
		fr, err := wire.NewReader(bytes.NewReader(frame.Bytes()))
		if err != nil {
			return err
		}
		for {
			if _, err := fr.ReadRecords(dec); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	}); err != nil {
		return nil, err
	}
	if err := set("wire.spool_gb_s", frameGB, func() error {
		fr, err := wire.NewReader(bytes.NewReader(frame.Bytes()))
		if err != nil {
			return err
		}
		_, err = fr.Spool(io.Discard)
		return err
	}); err != nil {
		return nil, err
	}

	// serve.Codec: Stage a request body into a staged record file and
	// Stream a result file back out, in both dialects.
	var lines bytes.Buffer
	var line []byte
	for _, r := range codec {
		line = strconv.AppendUint(line[:0], r.Key, 10)
		lines.Write(append(line, '\n'))
	}
	staged := filepath.Join(dir, "staged.bin")
	for _, c := range []struct {
		name string
		cd   serve.Codec
		body []byte
	}{
		{"text", serve.Codec{}, lines.Bytes()},
		{"binary", serve.Codec{Binary: true}, frame.Bytes()},
	} {
		mb := float64(len(c.body)) / 1e6
		if err := set("serve.stage_"+c.name+"_mb_s", mb, func() error {
			_, _, err := c.cd.Stage(bytes.NewReader(c.body), staged)
			return err
		}); err != nil {
			return nil, err
		}
		if err := extmem.WriteRecordsFile(staged, codec); err != nil {
			return nil, err
		}
		if err := set("serve.stream_"+c.name+"_mb_s", mb, func() error {
			return c.cd.Stream(io.Discard, staged, len(codec))
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
