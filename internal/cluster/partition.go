package cluster

// Range partitioning: the staged input is cut into Config.Shards
// key-range shards with the splitter machinery the parallel merge
// uses per-core (extmem.Splitters / extmem.ShardOf), written out as
// raw record files ready to ship. Shard files persist for the whole
// scatter phase so a failed or hedged attempt can re-stream the same
// bytes — retry needs no second partitioning pass.

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"asymsort/internal/extmem"
	"asymsort/internal/obs"
	"asymsort/internal/seq"
)

// shard is one key range of one job: its input file plus the dispatch
// state the scheduler tracks under its own mutex.
type shard struct {
	id   int
	path string // raw record file, n records
	n    int

	// Dispatch state, owned by the dispatcher's mutex.
	inflight   int
	attempts   int
	failures   int
	hedgedOnce bool
	done       bool
	firstStart time.Time
	cancels    []func()

	// Result of the winning attempt.
	outPath    string
	worker     string
	writes     uint64
	planWrites uint64
}

// partition samples the staged input, cuts splitters, and scans every
// record once into its shard's file. The staged file's payload lives
// at record offsets [skip, skip+n).
func (c *Coordinator) partition(staged string, n, skip int, dir string, sp *obs.Span) ([]*shard, error) {
	parts := c.cfg.Shards
	if parts > n && n > 0 {
		parts = n
	}
	if n == 0 {
		return nil, nil
	}
	bf, err := extmem.OpenBlockFile(staged, 1, nil)
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	lo, hi := skip, skip+n

	sample, err := extmem.SampleRecords(bf, lo, hi, c.cfg.SampleTarget)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(sample, seq.TotalCompare)
	splitters := extmem.Splitters(sample, parts)
	sp.Set(obs.Attr{Key: "shards", Val: int64(parts)},
		obs.Attr{Key: "sample", Val: int64(len(sample))})

	shards := make([]*shard, parts)
	files := make([]*os.File, parts)
	writers := make([]*bufio.Writer, parts)
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	for i := range shards {
		path := filepath.Join(dir, fmt.Sprintf("shard-%d.bin", i))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		files[i] = f
		writers[i] = bufio.NewWriterSize(f, 1<<18)
		shards[i] = &shard{id: i, path: path}
	}

	one := make([]seq.Record, 1)
	err = extmem.ScanRecords(bf, lo, hi, func(rec seq.Record) error {
		i := extmem.ShardOf(splitters, rec)
		one[0] = rec
		shards[i].n++
		_, werr := writers[i].Write(seq.Encoded(one))
		return werr
	})
	if err != nil {
		return nil, err
	}
	for i := range shards {
		if err := writers[i].Flush(); err != nil {
			return nil, err
		}
		if err := files[i].Close(); err != nil {
			return nil, err
		}
		files[i] = nil
	}
	return shards, nil
}
