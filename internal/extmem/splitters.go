package extmem

import (
	"sort"

	"asymsort/internal/seq"
)

// This file exports the range-splitter mechanism that mergeNode uses
// to cut one merge across P pool workers, so that other layers can cut
// the same total order across machines. The contract is shared: parts-1
// splitter records are quantiles of a sorted sample, every cut is the
// exact lower bound of a splitter under seq.TotalLess, and shard i
// holds exactly the records r with splitter[i-1] <= r < splitter[i].
// Because the order is total (key, then payload), concatenating the
// sorted shards in shard order reproduces the sequential sort's output
// byte-for-byte — the invariant the cluster layer's solo==cluster
// byte-identity check rests on.

// Splitters returns parts-1 range splitters: the record quantiles of
// sorted, which must already be ordered by seq.TotalLess. With an
// empty sample (or parts < 2) it returns nil, meaning a single shard
// holds everything. Duplicate records in the sample may yield
// duplicate splitters; the shards between two equal splitters are
// simply empty, which keeps ShardOf total and the concatenation
// invariant intact.
func Splitters(sorted []seq.Record, parts int) []seq.Record {
	if parts < 2 || len(sorted) == 0 {
		return nil
	}
	spl := make([]seq.Record, parts-1)
	for i := 1; i < parts; i++ {
		spl[i-1] = sorted[i*len(sorted)/parts]
	}
	return spl
}

// ShardOf returns the shard index of r under splitters: the number of
// splitters <= r in the seq.TotalLess order, computed by binary
// search. The result is in [0, len(splitters)], matching the
// lower-bound cut convention of the parallel merge: shard i holds
// splitter[i-1] <= r < splitter[i], with the virtual bounds
// splitter[-1] = -inf and splitter[len] = +inf.
func ShardOf(splitters []seq.Record, r seq.Record) int {
	return sort.Search(len(splitters), func(i int) bool { return seq.TotalLess(r, splitters[i]) })
}

// SampleRecords reads an evenly strided sample of up to want records
// from bf's record range [lo, hi). The sample is returned in file
// order, NOT sorted; callers sort it before cutting quantiles. Reads
// are charged to bf's stats like any other access.
func SampleRecords(bf *BlockFile, lo, hi, want int) ([]seq.Record, error) {
	n := hi - lo
	if n <= 0 || want <= 0 {
		return nil, nil
	}
	if want > n {
		want = n
	}
	sample := make([]seq.Record, 0, want)
	one := make([]seq.Record, 1)
	for i := 0; i < want; i++ {
		pos := lo + i*n/want
		if err := bf.ReadAt(pos, one); err != nil {
			return nil, err
		}
		sample = append(sample, one[0])
	}
	return sample, nil
}
