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
// A node holds only (key, run), 16 bytes: node[1..p-1] the match
// losers, node[0] the overall winner. Each run's record in play lives
// in head[run]; a match reads a Val from there only when it needs one,
// and the winner's record is copied from there to the output. Records
// order by (Key, Val, run). Ties by run index make the merge stable
// across runs and the output deterministic even with records that
// compare equal under seq.TotalLess.
//
// popInto pops a block at a time and replays it in one of two modes,
// chosen by the tree from its own output. Key mode compares keys, the
// borrow of one subtraction masking the swap, and reads the two Vals
// from head only when the keys are equal: a branch distinct keys almost
// never take, so a level costs one compare, a mask and two xors. On
// duplicate-heavy runs that branch is taken often and mispredicts, so
// full mode compares (Key, Val, run) as one 192-bit subtract-with-borrow
// chain whose borrow selects the swap by conditional moves, with no
// data-dependent branch. A block is replayed in full mode when more
// than one in fullModeDups adjacent output keys of the block before it
// were equal. Both modes order records identically; the mode changes
// only the speed.
//
// Leaves are padded to a power of two. Padding slots and exhausted runs
// are +∞: their node's run is offset by the padded width p, and
// head[p..2p) holds Key = Val = MaxUint64. A real all-ones record in
// run r < p still beats every +∞ by run order, and the merge is over
// exactly when the winner's run is ≥ p.
//
// Runs arrive a span at a time (recStream). Each run keeps its current
// span and an integer cursor into it, so advancing a run stores no
// slice header, and the tree asks a run for its next span only after
// every record of the previous one has entered — once per refill, never
// per record.
type loserTree struct {
	p    uint64       // leaves, padded to a power of two
	node []ltNode     // node[1..p-1]: match losers; node[0]: winner
	head []seq.Record // head[r]: run r's record in play; head[p..2p): +∞
	runs []ltRun
	rdrs []recStream
	full bool   // replay the next block in full mode
	last uint64 // the key of the last record popped
}

// ltNode is one tournament entry: a record's key and its run.
type ltNode struct {
	key, run uint64
}

// ltRun is one run's current span; s[i:] has not entered the tree.
type ltRun struct {
	s []seq.Record
	i int
}

// fullModeDups sets popInto's replay mode: a block is replayed in full
// mode when more than one in fullModeDups adjacent keys of the block
// before it were equal.
const fullModeDups = 8

// newLoserTree builds the tree, taking every reader's first span.
func newLoserTree(rdrs []recStream) (*loserTree, error) {
	k := len(rdrs)
	p := 1
	for p < k {
		p *= 2
	}
	lt := &loserTree{
		p:    uint64(p),
		node: make([]ltNode, 2*p), // node[p..2p) unused: see popKey
		head: make([]seq.Record, 2*p),
		runs: make([]ltRun, k),
		rdrs: rdrs,
	}
	for i := p; i < 2*p; i++ {
		lt.head[i] = seq.Record{Key: math.MaxUint64, Val: math.MaxUint64}
	}
	// win[p+i] is leaf i's entry; win[i] the winner of subtree i.
	win := make([]ltNode, 2*p)
	for i := range p {
		win[p+i] = ltNode{math.MaxUint64, uint64(p + i)}
		if i < k {
			nx, err := lt.refill(uint64(i))
			if err != nil {
				return nil, err
			}
			win[p+i] = nx
		}
	}
	for i := p - 1; i > 0; i-- {
		a, b := win[2*i], win[2*i+1]
		if lt.before(b, a) {
			a, b = b, a
		}
		win[i], lt.node[i] = a, b
	}
	lt.node[0] = win[1] // with p = 1, leaf 0 itself
	return lt, nil
}

// before reports whether a orders before b by (Key, Val, run).
func (lt *loserTree) before(a, b ltNode) bool {
	_, c := bits.Sub64(a.run, b.run, 0)
	_, c = bits.Sub64(lt.head[a.run].Val, lt.head[b.run].Val, c)
	_, c = bits.Sub64(a.key, b.key, c)
	return c == 1
}

// refill moves the first record of run r's next span into head[r] and
// returns r's new entry: +∞ once the run is exhausted. The pop loops
// advance a run within its span themselves.
func (lt *loserTree) refill(r uint64) (ltNode, error) {
	s, err := lt.rdrs[r].span()
	if err != nil {
		return ltNode{}, err
	}
	if len(s) == 0 {
		return ltNode{math.MaxUint64, r + lt.p}, nil
	}
	lt.runs[r] = ltRun{s, 1}
	lt.head[r] = s[0]
	return ltNode{s[0].Key, r}, nil
}

// popInto fills dst with the smallest records left across all runs, in
// order, and returns how many it wrote: len(dst) unless every run ran
// out first. A reader error ends the merge: popInto returns it with the
// count of records written before the record whose run failed to
// refill. The block is replayed in the mode its predecessor chose, and
// its own count of equal adjacent keys chooses the next block's.
func (lt *loserTree) popInto(dst []seq.Record) (n int, err error) {
	var eq int
	if lt.full {
		n, eq, err = lt.popFull(dst)
	} else {
		n, eq, err = lt.popKey(dst)
	}
	lt.full = eq*fullModeDups > n
	return n, err
}

// popKey is popInto in key mode, the replay inlined: the borrow of the
// key subtraction masks the swap, and equal keys fall back to (Val,
// run) read from head. At each node the stored loser and the climber w
// swap exactly when the loser orders first. node and head both hold 2p
// entries, so masking their indexes by 2p-1 proves them in bounds: the
// loop needs no length checks and fits in registers. It returns the
// count of popped records and of those whose key equals the one popped
// before.
func (lt *loserTree) popKey(dst []seq.Record) (int, int, error) {
	p, nd := lt.p, lt.node
	head := lt.head[:len(nd)]
	w := nd[0]
	mask := uint64(len(nd) - 1)
	last, eq := lt.last, 0
	n := 0
	for ; n < len(dst) && w.run < p; n++ {
		r := w.run
		rec := head[r&mask]
		dst[n] = rec
		if rec.Key == last {
			eq++
		}
		last = rec.Key
		if rn := &lt.runs[r]; rn.i < len(rn.s) {
			rec := rn.s[rn.i]
			rn.i++
			head[r&mask], w.key = rec, rec.Key
		} else {
			var err error
			if w, err = lt.refill(r); err != nil {
				return n, eq, err
			}
		}
		for i := (p + r) >> 1; i > 0; i >>= 1 {
			l := nd[i&mask]
			_, c := bits.Sub64(l.key, w.key, 0)
			m := -c
			if l.key == w.key {
				_, c = bits.Sub64(l.run, w.run, 0)
				_, c = bits.Sub64(head[l.run&mask].Val, head[w.run&mask].Val, c)
				m = -c
			}
			dk, dr := (l.key^w.key)&m, (l.run^w.run)&m
			nd[i&mask] = ltNode{l.key ^ dk, l.run ^ dr}
			w = ltNode{w.key ^ dk, w.run ^ dr}
		}
	}
	nd[0], lt.last = w, last
	return n, eq, nil
}

// popFull is popKey in full mode, the replay in replayFull. The two
// loops stay apart: in one loop for both modes, the call into
// replayFull made key mode reload the loop's values on every record.
func (lt *loserTree) popFull(dst []seq.Record) (int, int, error) {
	w := lt.node[0]
	last, eq := lt.last, 0
	n := 0
	for ; n < len(dst) && w.run < lt.p; n++ {
		r := w.run
		rec := lt.head[r]
		dst[n] = rec
		if rec.Key == last {
			eq++
		}
		last = rec.Key
		if rn := &lt.runs[r]; rn.i < len(rn.s) {
			rec := rn.s[rn.i]
			rn.i++
			lt.head[r], w.key = rec, rec.Key
		} else {
			var err error
			if w, err = lt.refill(r); err != nil {
				return n, eq, err
			}
		}
		w = lt.replayFull((lt.p+r)>>1, w)
	}
	lt.node[0], lt.last = w, last
	return n, eq, nil
}

// replayFull climbs from node i to the root in full mode, one (Key,
// Val, run) borrow chain per level with the climber's Val riding along
// in wv, and returns the new winner. Its indexes are masked as in
// popKey. It stays out of popFull's loop, whose live values would
// otherwise push its own onto the stack and turn the swap into a
// branch.
//
//go:noinline
func (lt *loserTree) replayFull(i uint64, w ltNode) ltNode {
	nd := lt.node
	if len(nd) == 0 {
		return w // never taken; it proves the masked indexes in bounds
	}
	head := lt.head[:len(nd)]
	mask := uint64(len(nd) - 1)
	wv := head[w.run&mask].Val
	for ; i > 0; i >>= 1 {
		l := nd[i&mask]
		lv := head[l.run&mask].Val
		_, c := bits.Sub64(l.run, w.run, 0)
		_, c = bits.Sub64(lv, wv, c)
		_, c = bits.Sub64(l.key, w.key, c)
		if c != 0 {
			l, w = w, l
			lv, wv = wv, lv
		}
		nd[i&mask] = l
	}
	return w
}
