package extmem

import "asymsort/internal/seq"

// This file plans the merge tree. The arithmetic is a deliberate mirror
// of aemsort.mergeSortRec for the same (n, M, B, k): a node of n > kM
// records partitions at block granularity into at most l = kM/B
// subarrays of per = ⌈blocks/l⌉ blocks each; nodes of n ≤ kM records
// are leaves (runs). Both sides write every node's output exactly once
// through block-aligned buffers, so once the trees coincide the block
// write ledgers coincide — per level, not just in total. The
// integration tests in internal/integration assert this; any change to
// the partition arithmetic here or in aemsort must keep the two in
// lockstep.

// planNode is one node of the merge tree: a contiguous record range of
// the input. Leaves are formed runs; internal nodes merge their
// children. lo is always a block multiple (partitioning from 0 at block
// granularity), so every node's output region is block-aligned.
type planNode struct {
	lo, hi int
	kids   []*planNode
	// level is the node's execution level: 0 mirrors nothing (unused on
	// leaves — a leaf is always formation, level index 0 of the ledger),
	// and for internal nodes it is depth(tree) - depth(node) + ... see
	// Plan.Levels. Children of a level-ℓ node sit at level ℓ-1; a leaf
	// may sit at any level ≥ 0 in a ragged tree, but its writes are
	// always formation writes.
	level int
	// index, on a parallel engine, caches the first record of each
	// device block of the node's written output (entry j = the record
	// at lo + j·B). The parent's parallel merge binary-searches it to
	// cut this run into the workers' key ranges without touching the
	// device, then frees it. It is O(len/B) metadata outside the record
	// budget, the engine-side analogue of the simulator's slack blocks;
	// the sequential engine never allocates it.
	index []seq.Record
}

func (nd *planNode) leaf() bool { return len(nd.kids) == 0 }
func (nd *planNode) len() int   { return nd.hi - nd.lo }

// Plan is the merge tree the engine executes for one configuration.
type Plan struct {
	N      int
	Mem    int // M, a multiple of Block
	Block  int // B
	K      int
	FanIn  int // l
	root   *planNode
	levels int // merge levels; 0 when the whole input is one run
	runs   int // number of leaves
}

// NewPlan builds the merge tree for n records under memory mem, block
// size block, read multiplier k, and fan-in l (0 means the canonical
// k*mem/block, min 2 — the value that matches the simulated ledger).
func NewPlan(n, mem, block, k, fanIn int) *Plan {
	if block < 1 || mem < block || mem%block != 0 || k < 1 {
		panic("extmem: NewPlan needs block >= 1, mem a positive multiple of block, k >= 1")
	}
	if fanIn == 0 {
		fanIn = k * mem / block
	}
	if fanIn < 2 {
		fanIn = 2
	}
	p := &Plan{N: n, Mem: mem, Block: block, K: k, FanIn: fanIn}
	if n > 0 {
		p.root = p.build(0, n)
		p.levels = p.assignLevels(p.root)
	}
	return p
}

// build mirrors aemsort.mergeSortRec's partition (minus the sorting).
func (p *Plan) build(lo, hi int) *planNode {
	n := hi - lo
	if n <= p.K*p.Mem {
		p.runs++
		return &planNode{lo: lo, hi: hi}
	}
	blocks := (n + p.Block - 1) / p.Block
	per := (blocks + p.FanIn - 1) / p.FanIn
	var kids []*planNode
	for b0 := 0; b0 < blocks; b0 += per {
		klo := lo + b0*p.Block
		khi := lo + (b0+per)*p.Block
		if khi > hi {
			khi = hi
		}
		kids = append(kids, p.build(klo, khi))
	}
	if len(kids) == 1 {
		// aemsort returns the lone run unmerged; the partition above
		// cannot actually produce this (per < blocks whenever n > kM),
		// but mirror the guard.
		return kids[0]
	}
	return &planNode{lo: lo, hi: hi, kids: kids}
}

// assignLevels sets each node's execution level to height - depth(node)
// and returns the tree height (= merge level count). Levels count
// bottom-up from the deepest leaves, so the root — the final pass into
// the output file — is level `height`, and all children of a level-ℓ
// node share level ℓ-1 even in ragged trees, which is what lets the
// executor ping-pong between two spill files by level parity.
func (p *Plan) assignLevels(root *planNode) int {
	depth := 0
	var walk func(nd *planNode, d int)
	walk = func(nd *planNode, d int) {
		if d > depth {
			depth = d
		}
		for _, kid := range nd.kids {
			walk(kid, d+1)
		}
	}
	walk(root, 0)
	var set func(nd *planNode, d int)
	set = func(nd *planNode, d int) {
		nd.level = depth - d
		for _, kid := range nd.kids {
			set(kid, d+1)
		}
	}
	set(root, 0)
	return depth
}

// phases returns the plan's nodes in execution-phase order: every leaf
// (left to right), then the internal nodes of each merge level 1..
// Levels() (left to right within a level). The engine executes the
// phases in sequence — form all runs, then merge level by level — which
// is IO-equivalent to the depth-first order (every node still writes
// its own region exactly once, a region is only consumed by the next
// level up, and a same-parity spill region is only overwritten two
// levels later, after its reader finished) but lets the formation
// workers take leaves in any order.
func (p *Plan) phases() (leaves []*planNode, byLevel [][]*planNode) {
	byLevel = make([][]*planNode, p.levels+1)
	if p.root == nil {
		return nil, byLevel
	}
	var walk func(nd *planNode)
	walk = func(nd *planNode) {
		if nd.leaf() {
			leaves = append(leaves, nd)
			return
		}
		for _, kid := range nd.kids {
			walk(kid)
		}
		byLevel[nd.level] = append(byLevel[nd.level], nd)
	}
	walk(p.root)
	return leaves, byLevel
}

// Levels returns the number of merge levels (write passes beyond run
// formation). Adding formation, total write passes = Levels()+1 —
// AEM-MERGESORT's ⌈log_{kM/B}(n/B)⌉ level count.
func (p *Plan) Levels() int { return p.levels }

// Runs returns the number of leaf runs the plan forms.
func (p *Plan) Runs() int { return p.runs }

// LevelWrites predicts the block writes per level: index 0 is run
// formation (every leaf writes ⌈len/B⌉ blocks once), index ℓ ≥ 1 the
// merge passes at level ℓ. This is exactly what the simulated AEM
// ledger charges, and what the engine's measured Report.LevelIO must
// reproduce.
func (p *Plan) LevelWrites() []uint64 {
	out := make([]uint64, p.levels+1)
	if p.root == nil {
		return out
	}
	var walk func(nd *planNode)
	walk = func(nd *planNode) {
		blocks := uint64((nd.len() + p.Block - 1) / p.Block)
		if nd.leaf() {
			out[0] += blocks
		} else {
			out[nd.level] += blocks
			for _, kid := range nd.kids {
				walk(kid)
			}
		}
	}
	walk(p.root)
	return out
}

// TotalWrites sums LevelWrites — the figure the integration test
// checks against the aemsort machine ledger.
func (p *Plan) TotalWrites() uint64 {
	var t uint64
	for _, w := range p.LevelWrites() {
		t += w
	}
	return t
}
