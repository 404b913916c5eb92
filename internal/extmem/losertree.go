package extmem

import (
	"math"
	"math/bits"

	"asymsort/internal/seq"
)

// loserTree is a tournament selection tree over k sorted runs: popping
// the minimum and replaying the winner's path costs ⌈log₂k⌉ record
// comparisons, against the log k a binary heap pays twice (delete-min
// plus insert). That constant matters here because the merge stage's
// fan-in is kM/B — routinely thousands — and every record of every
// level passes through the tree.
//
// Every node stores its match loser inline as (Key, Val, run), and node
// 0 stores the overall winner, so a replay reads and writes only the
// nodes on one leaf-to-root path. A match is one 192-bit comparison of
// (Key, Val, run), a subtract-with-borrow chain, and the borrow's mask
// selects the swap: no data-dependent branch, which on random keys
// would mispredict at about every other level.
//
// Leaves are padded to a power of two. Padding slots and exhausted runs
// hold +∞ entries — Key = Val = MaxUint64, run offset by the padded
// width p — so a real all-ones record in run r < p still beats every
// +∞ by run order, and the merge is over exactly when the winner's run
// is ≥ p. Ties order by run index, so merging is stable across runs and
// the output is deterministic even with records that compare equal
// under seq.TotalLess.
//
// Runs arrive a span at a time (recStream). A record is copied into the
// tree when it enters the tournament, so the tree asks a run for its
// next span only after every record of the previous one has entered —
// once per refill, never per record.
type loserTree struct {
	p     uint64         // leaves, padded to a power of two
	node  []ltEntry      // node[1..p-1]: match losers; node[0]: winner
	spans [][]seq.Record // each run's records not yet in the tree
	rdrs  []recStream
}

// ltEntry is one tournament entry: a record and the run it came from.
type ltEntry struct {
	key, val, run uint64
}

// below returns 1 when a orders before b by (Key, Val, run), else 0:
// the borrow out of the 192-bit subtraction a − b.
func below(a, b ltEntry) uint64 {
	_, c := bits.Sub64(a.run, b.run, 0)
	_, c = bits.Sub64(a.val, b.val, c)
	_, c = bits.Sub64(a.key, b.key, c)
	return c
}

// newLoserTree builds the tree, taking every reader's first span.
func newLoserTree(rdrs []recStream) (*loserTree, error) {
	k := len(rdrs)
	p := 1
	for p < k {
		p *= 2
	}
	lt := &loserTree{
		p:     uint64(p),
		node:  make([]ltEntry, p),
		spans: make([][]seq.Record, k),
		rdrs:  rdrs,
	}
	// win[p+i] is leaf i's entry; win[i] the winner of subtree i.
	win := make([]ltEntry, 2*p)
	for i := range p {
		win[p+i] = ltEntry{math.MaxUint64, math.MaxUint64, uint64(p + i)}
		if i >= k {
			continue
		}
		s, err := rdrs[i].span()
		if err != nil {
			return nil, err
		}
		if len(s) > 0 {
			win[p+i] = ltEntry{s[0].Key, s[0].Val, uint64(i)}
			lt.spans[i] = s[1:]
		}
	}
	for i := p - 1; i > 0; i-- {
		a, b := win[2*i], win[2*i+1]
		if below(b, a) == 1 {
			a, b = b, a
		}
		win[i], lt.node[i] = a, b
	}
	lt.node[0] = win[1] // with p = 1, leaf 0 itself
	return lt, nil
}

// pop removes and returns the minimum record across all runs; ok is
// false when every run is exhausted.
func (lt *loserTree) pop() (rec seq.Record, ok bool, err error) {
	w := lt.node[0]
	if w.run >= lt.p {
		return rec, false, nil
	}
	rec = seq.Record{Key: w.key, Val: w.val}
	r := w.run
	s := lt.spans[r]
	if len(s) == 0 {
		if s, err = lt.rdrs[r].span(); err != nil {
			return rec, false, err
		}
	}
	if len(s) > 0 {
		w.key, w.val = s[0].Key, s[0].Val
		lt.spans[r] = s[1:]
	} else {
		w = ltEntry{math.MaxUint64, math.MaxUint64, r + lt.p}
	}
	// Replay w's path to the root: at each node the stored loser and the
	// climber swap exactly when the loser orders first.
	nd := lt.node
	for i := (lt.p + r) >> 1; i > 0; i >>= 1 {
		l := nd[i]
		m := -below(l, w)
		dk := (l.key ^ w.key) & m
		dv := (l.val ^ w.val) & m
		dr := (l.run ^ w.run) & m
		nd[i] = ltEntry{l.key ^ dk, l.val ^ dv, l.run ^ dr}
		w = ltEntry{w.key ^ dk, w.val ^ dv, w.run ^ dr}
	}
	nd[0] = w
	return rec, true, nil
}
