// Package ramsort implements Section 3 of the paper on the Asymmetric RAM
// model: sorting with O(n log n) reads but only O(n) writes, by inserting
// records into a balanced binary search tree and reading them back in
// order, together with the write-efficient priority queue and dictionary
// the section derives from the same structure, and the classical
// write-heavy baselines (quicksort, mergesort, heapsort, selection sort)
// that the experiments compare against.
//
// The balanced tree is a red-black tree. Red-black trees perform O(1)
// amortized structural changes (rotations plus recolorings) per update
// [Tarjan '83; cf. the paper's citation of Ottmann & Wood], which is what
// makes each insertion cost O(log n) reads but amortized O(1) writes.
// Every node load charges one read and every node store one write against
// the tree's aram.Memory ledger, so the O(n) total-write claim is measured,
// not assumed; TestInsertWritesLinear asserts it.
package ramsort

import (
	"asymsort/internal/aram"
)

// nilIdx is the index of the shared black sentinel leaf (CLRS-style).
const nilIdx = 0

// node is one red-black tree node. Nodes are O(1) words, so loading or
// storing a node is one charged read or write, the unit the paper uses.
type node struct {
	key    uint64
	val    uint64
	left   int32
	right  int32
	parent int32
	red    bool
}

// Tree is a red-black tree over an instrumented memory. The zero value is
// not usable; call NewTree.
type Tree struct {
	mem   *aram.Memory
	nodes []node
	root  int32
	size  int

	// rotations counts structural rotations for the amortized-O(1) test;
	// it is diagnostic state, not charged memory.
	rotations uint64
}

// NewTree returns an empty tree charging against mem. capacityHint sizes
// the initial node pool; the pool grows automatically (growth copies are
// charged as writes, preserving the amortized accounting).
func NewTree(mem *aram.Memory, capacityHint int) *Tree {
	if capacityHint < 0 {
		capacityHint = 0
	}
	t := &Tree{mem: mem, nodes: make([]node, 1, capacityHint+1), root: nilIdx}
	// nodes[0] is the sentinel: black, self-parented. Written once.
	t.nodes[0] = node{left: nilIdx, right: nilIdx, parent: nilIdx, red: false}
	mem.ChargeWrite(1)
	return t
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.size }

// Rotations returns the total number of rotations performed, for the
// amortized-O(1)-updates diagnostics.
func (t *Tree) Rotations() uint64 { return t.rotations }

// load fetches node i, charging one read.
func (t *Tree) load(i int32) node {
	t.mem.ChargeRead(1)
	return t.nodes[i]
}

// store writes node i, charging one write.
func (t *Tree) store(i int32, n node) {
	t.mem.ChargeWrite(1)
	t.nodes[i] = n
}

// alloc appends a fresh node and returns its index, charging one write for
// the node itself. Pool doubling charges one write per copied node, which
// amortizes to O(1) extra writes per insertion.
func (t *Tree) alloc(n node) int32 {
	if len(t.nodes) == cap(t.nodes) {
		t.mem.ChargeWrite(uint64(len(t.nodes)))
	}
	t.nodes = append(t.nodes, n)
	t.mem.ChargeWrite(1)
	return int32(len(t.nodes) - 1)
}

// setLeft / setRight / setParent / setColor perform a single-field update
// as a load-modify-store: one read plus one write, O(1) words.
func (t *Tree) setLeft(i, child int32) {
	n := t.load(i)
	n.left = child
	t.store(i, n)
}

func (t *Tree) setRight(i, child int32) {
	n := t.load(i)
	n.right = child
	t.store(i, n)
}

func (t *Tree) setParent(i, p int32) {
	if i == nilIdx {
		// CLRS permits transiently setting the sentinel's parent during
		// delete fixup; it is one charged write like any other.
	}
	n := t.load(i)
	n.parent = p
	t.store(i, n)
}

func (t *Tree) setColor(i int32, red bool) {
	n := t.load(i)
	if n.red == red {
		return // no write needed; color already correct
	}
	n.red = red
	t.store(i, n)
}

// isRed reads a node's color (the sentinel is always black).
func (t *Tree) isRed(i int32) bool {
	if i == nilIdx {
		return false
	}
	return t.load(i).red
}

// leftRotate performs the standard left rotation around x.
func (t *Tree) leftRotate(x int32) {
	t.rotations++
	xn := t.load(x)
	y := xn.right
	yn := t.load(y)

	// Move y's left subtree under x.
	xn.right = yn.left
	if yn.left != nilIdx {
		t.setParent(yn.left, x)
	}
	// Link y into x's old position.
	yn.parent = xn.parent
	if xn.parent == nilIdx {
		t.root = y
	} else {
		p := t.load(xn.parent)
		if p.left == x {
			p.left = y
		} else {
			p.right = y
		}
		t.store(xn.parent, p)
	}
	yn.left = x
	xn.parent = y
	t.store(x, xn)
	t.store(y, yn)
}

// rightRotate performs the standard right rotation around x.
func (t *Tree) rightRotate(x int32) {
	t.rotations++
	xn := t.load(x)
	y := xn.left
	yn := t.load(y)

	xn.left = yn.right
	if yn.right != nilIdx {
		t.setParent(yn.right, x)
	}
	yn.parent = xn.parent
	if xn.parent == nilIdx {
		t.root = y
	} else {
		p := t.load(xn.parent)
		if p.left == x {
			p.left = y
		} else {
			p.right = y
		}
		t.store(xn.parent, p)
	}
	yn.right = x
	xn.parent = y
	t.store(x, xn)
	t.store(y, yn)
}

// Insert adds key with payload val. Duplicate keys are permitted: the
// tree orders nodes by (key, payload), seq.TotalLess, so an in-order
// walk lists equal keys by payload whatever order they came in. The
// paper assumes unique keys, for which the payload is never compared.
func (t *Tree) Insert(key, val uint64) {
	// BST descent: reads only.
	y := int32(nilIdx)
	x := t.root
	for x != nilIdx {
		y = x
		xn := t.load(x)
		if key < xn.key || key == xn.key && val < xn.val {
			x = xn.left
		} else {
			x = xn.right
		}
	}
	z := t.alloc(node{key: key, val: val, left: nilIdx, right: nilIdx, parent: y, red: true})
	if y == nilIdx {
		t.root = z
	} else {
		yn := t.load(y)
		if key < yn.key || key == yn.key && val < yn.val {
			yn.left = z
		} else {
			yn.right = z
		}
		t.store(y, yn)
	}
	t.size++
	t.insertFixup(z)
}

// insertFixup restores the red-black invariants after inserting z (CLRS
// RB-INSERT-FIXUP). Recolorings as it climbs are the amortized-O(1) writes.
func (t *Tree) insertFixup(z int32) {
	for {
		zp := t.load(z).parent
		if zp == nilIdx || !t.isRed(zp) {
			break
		}
		zpp := t.load(zp).parent
		zppn := t.load(zpp)
		if zp == zppn.left {
			uncle := zppn.right
			if t.isRed(uncle) {
				t.setColor(zp, false)
				t.setColor(uncle, false)
				t.setColor(zpp, true)
				z = zpp
			} else {
				if z == t.load(zp).right {
					z = zp
					t.leftRotate(z)
					zp = t.load(z).parent
					zpp = t.load(zp).parent
				}
				t.setColor(zp, false)
				t.setColor(zpp, true)
				t.rightRotate(zpp)
			}
		} else {
			uncle := zppn.left
			if t.isRed(uncle) {
				t.setColor(zp, false)
				t.setColor(uncle, false)
				t.setColor(zpp, true)
				z = zpp
			} else {
				if z == t.load(zp).left {
					z = zp
					t.rightRotate(z)
					zp = t.load(z).parent
					zpp = t.load(zp).parent
				}
				t.setColor(zp, false)
				t.setColor(zpp, true)
				t.leftRotate(zpp)
			}
		}
	}
	t.setColor(t.root, false)
}

// Min returns the minimum key and its payload. ok is false when empty.
// Cost: O(log n) reads, zero writes.
func (t *Tree) Min() (key, val uint64, ok bool) {
	if t.root == nilIdx {
		return 0, 0, false
	}
	i := t.minimum(t.root)
	n := t.load(i)
	return n.key, n.val, true
}

// minimum returns the index of the leftmost node of the subtree at i.
func (t *Tree) minimum(i int32) int32 {
	for {
		n := t.load(i)
		if n.left == nilIdx {
			return i
		}
		i = n.left
	}
}

// Search returns the payload stored under key. Cost: O(log n) reads.
func (t *Tree) Search(key uint64) (val uint64, ok bool) {
	x := t.root
	for x != nilIdx {
		n := t.load(x)
		switch {
		case key < n.key:
			x = n.left
		case key > n.key:
			x = n.right
		default:
			return n.val, true
		}
	}
	return 0, false
}

// findNode returns the index holding key, or nilIdx.
func (t *Tree) findNode(key uint64) int32 {
	x := t.root
	for x != nilIdx {
		n := t.load(x)
		switch {
		case key < n.key:
			x = n.left
		case key > n.key:
			x = n.right
		default:
			return x
		}
	}
	return nilIdx
}

// Delete removes one node with the given key, reporting whether a node was
// found. Cost: O(log n) reads, amortized O(1) writes.
func (t *Tree) Delete(key uint64) bool {
	z := t.findNode(key)
	if z == nilIdx {
		return false
	}
	t.deleteNode(z)
	return true
}

// DeleteMin removes and returns the minimum element.
func (t *Tree) DeleteMin() (key, val uint64, ok bool) {
	if t.root == nilIdx {
		return 0, 0, false
	}
	i := t.minimum(t.root)
	n := t.load(i)
	t.deleteNode(i)
	return n.key, n.val, true
}

// transplant replaces the subtree rooted at u with the one rooted at v.
func (t *Tree) transplant(u, v int32) {
	up := t.load(u).parent
	if up == nilIdx {
		t.root = v
	} else {
		p := t.load(up)
		if p.left == u {
			p.left = v
		} else {
			p.right = v
		}
		t.store(up, p)
	}
	// CLRS sets v.parent unconditionally, including for the sentinel.
	t.setParent(v, up)
}

// deleteNode is CLRS RB-DELETE.
func (t *Tree) deleteNode(z int32) {
	zn := t.load(z)
	y := z
	yWasRed := zn.red
	var x int32
	switch {
	case zn.left == nilIdx:
		x = zn.right
		t.transplant(z, zn.right)
	case zn.right == nilIdx:
		x = zn.left
		t.transplant(z, zn.left)
	default:
		y = t.minimum(zn.right)
		yn := t.load(y)
		yWasRed = yn.red
		x = yn.right
		if yn.parent == z {
			t.setParent(x, y)
		} else {
			t.transplant(y, yn.right)
			yn = t.load(y)
			yn.right = zn.right
			t.store(y, yn)
			t.setParent(yn.right, y)
		}
		t.transplant(z, y)
		yn = t.load(y)
		yn.left = zn.left
		yn.red = zn.red
		t.store(y, yn)
		t.setParent(yn.left, y)
	}
	t.size--
	if !yWasRed {
		t.deleteFixup(x)
	}
}

// deleteFixup is CLRS RB-DELETE-FIXUP.
func (t *Tree) deleteFixup(x int32) {
	for x != t.root && !t.isRed(x) {
		xp := t.load(x).parent
		xpn := t.load(xp)
		if x == xpn.left {
			w := xpn.right
			if t.isRed(w) {
				t.setColor(w, false)
				t.setColor(xp, true)
				t.leftRotate(xp)
				w = t.load(t.load(x).parent).right
			}
			wn := t.load(w)
			if !t.isRed(wn.left) && !t.isRed(wn.right) {
				t.setColor(w, true)
				x = t.load(x).parent
			} else {
				if !t.isRed(wn.right) {
					t.setColor(wn.left, false)
					t.setColor(w, true)
					t.rightRotate(w)
					w = t.load(t.load(x).parent).right
				}
				xp = t.load(x).parent
				t.setColor(w, t.isRed(xp))
				t.setColor(xp, false)
				t.setColor(t.load(w).right, false)
				t.leftRotate(xp)
				x = t.root
			}
		} else {
			w := xpn.left
			if t.isRed(w) {
				t.setColor(w, false)
				t.setColor(xp, true)
				t.rightRotate(xp)
				w = t.load(t.load(x).parent).left
			}
			wn := t.load(w)
			if !t.isRed(wn.right) && !t.isRed(wn.left) {
				t.setColor(w, true)
				x = t.load(x).parent
			} else {
				if !t.isRed(wn.left) {
					t.setColor(wn.right, false)
					t.setColor(w, true)
					t.leftRotate(w)
					w = t.load(t.load(x).parent).left
				}
				xp = t.load(x).parent
				t.setColor(w, t.isRed(xp))
				t.setColor(xp, false)
				t.setColor(t.load(w).left, false)
				t.rightRotate(xp)
				x = t.root
			}
		}
	}
	t.setColor(x, false)
}

// InOrder calls visit(key, val) for every element in ascending key order.
// Cost: O(n) reads (each node is loaded O(1) times), zero writes. The
// traversal stack is the O(log M) scratch the model grants for free.
func (t *Tree) InOrder(visit func(key, val uint64)) {
	var walk func(i int32)
	walk = func(i int32) {
		if i == nilIdx {
			return
		}
		n := t.load(i)
		walk(n.left)
		visit(n.key, n.val)
		walk(n.right)
	}
	walk(t.root)
}

// checkInvariants verifies the red-black properties, returning the black
// height. It is exported to the package tests via export_test.go and does
// not charge the ledger (verification is outside the simulated machine).
func (t *Tree) checkInvariants() (blackHeight int, err error) {
	if t.root != nilIdx && t.nodes[t.root].red {
		return 0, errRedRoot
	}
	return t.checkSubtree(t.root)
}

func (t *Tree) checkSubtree(i int32) (int, error) {
	if i == nilIdx {
		return 1, nil
	}
	n := t.nodes[i]
	if n.red {
		if n.left != nilIdx && t.nodes[n.left].red {
			return 0, errRedRed
		}
		if n.right != nilIdx && t.nodes[n.right].red {
			return 0, errRedRed
		}
	}
	if n.left != nilIdx && t.nodes[n.left].key > n.key {
		return 0, errOrder
	}
	if n.right != nilIdx && t.nodes[n.right].key < n.key {
		return 0, errOrder
	}
	lh, err := t.checkSubtree(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkSubtree(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackHeight
	}
	if !n.red {
		lh++
	}
	return lh, nil
}

type treeError string

func (e treeError) Error() string { return string(e) }

const (
	errRedRoot     = treeError("ramsort: red root")
	errRedRed      = treeError("ramsort: red node with red child")
	errOrder       = treeError("ramsort: BST order violated")
	errBlackHeight = treeError("ramsort: black heights differ")
)
