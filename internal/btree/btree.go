// Package btree implements a clustered B+-tree: the access path the
// Turbulence database uses to retrieve atoms, keyed on the combination of
// time step and Morton index (§III.A of the paper).
//
// Interior nodes hold only separator keys; all values live in the leaves,
// which are linked left-to-right so that range scans (e.g. "all atoms of
// time step t in Morton order") stream sequentially — exactly the property
// that makes Morton-sorted batch execution I/O friendly.
package btree

import (
	"fmt"
	"sort"
)

// Tree is a B+-tree mapping ordered keys K to values V. Create one with
// New. Not safe for concurrent mutation; the store serializes access.
type Tree[K any, V any] struct {
	less   func(a, b K) bool
	order  int // max children per interior node
	root   node[K, V]
	height int
	size   int
}

// DefaultOrder is the branching factor used when New is given order < 3.
const DefaultOrder = 64

type node[K any, V any] interface {
	// insert adds (k,v); if the node splits it returns the separator key
	// and the new right sibling.
	insert(t *Tree[K, V], k K, v V) (sep K, right node[K, V], split, added bool)
	firstLeaf() *leaf[K, V]
}

type interior[K any, V any] struct {
	keys     []K
	children []node[K, V]
}

type leaf[K any, V any] struct {
	keys []K
	vals []V
	next *leaf[K, V]
}

// New creates an empty tree with the given branching order (use 0 for the
// default) and key ordering.
func New[K any, V any](order int, less func(a, b K) bool) *Tree[K, V] {
	if order < 3 {
		order = DefaultOrder
	}
	return &Tree[K, V]{less: less, order: order, root: &leaf[K, V]{}, height: 1}
}

// Put inserts or replaces the value for key k.
func (t *Tree[K, V]) Put(k K, v V) {
	sep, right, split, added := t.root.insert(t, k, v)
	if split {
		t.root = &interior[K, V]{keys: []K{sep}, children: []node[K, V]{t.root, right}}
		t.height++
	}
	if added {
		t.size++
	}
}

// Get returns the value for key k.
func (t *Tree[K, V]) Get(k K) (V, bool) {
	n := t.root
	for {
		switch x := n.(type) {
		case *interior[K, V]:
			n = x.children[x.childIndex(t, k)]
		case *leaf[K, V]:
			i, ok := x.find(t, k)
			if !ok {
				var zero V
				return zero, false
			}
			return x.vals[i], true
		default:
			panic("btree: unknown node type")
		}
	}
}

// Scan calls fn for every key in [lo, hi) in ascending order, stopping
// early if fn returns false. The leaf chain makes this a sequential walk.
func (t *Tree[K, V]) Scan(lo, hi K, fn func(k K, v V) bool) {
	n := t.root
	for {
		x, ok := n.(*interior[K, V])
		if !ok {
			break
		}
		n = x.children[x.childIndex(t, lo)]
	}
	lf := n.(*leaf[K, V])
	for lf != nil {
		for i, k := range lf.keys {
			if t.less(k, lo) {
				continue
			}
			if !t.less(k, hi) {
				return
			}
			if !fn(k, lf.vals[i]) {
				return
			}
		}
		lf = lf.next
	}
}

// childIndex finds which child subtree of an interior node covers k.
func (n *interior[K, V]) childIndex(t *Tree[K, V], k K) int {
	return sort.Search(len(n.keys), func(i int) bool { return t.less(k, n.keys[i]) })
}

func (n *interior[K, V]) firstLeaf() *leaf[K, V] { return n.children[0].firstLeaf() }

func (n *interior[K, V]) insert(t *Tree[K, V], k K, v V) (K, node[K, V], bool, bool) {
	idx := n.childIndex(t, k)
	sep, right, split, added := n.children[idx].insert(t, k, v)
	if split {
		n.keys = append(n.keys, sep)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = sep
		n.children = append(n.children, nil)
		copy(n.children[idx+2:], n.children[idx+1:])
		n.children[idx+1] = right
	}
	if len(n.children) > t.order {
		mid := len(n.keys) / 2
		promoted := n.keys[mid]
		sibling := &interior[K, V]{
			keys:     append([]K(nil), n.keys[mid+1:]...),
			children: append([]node[K, V](nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
		return promoted, sibling, true, added
	}
	var zero K
	return zero, nil, false, added
}

// find locates k within the leaf; ok reports whether it is present.
func (n *leaf[K, V]) find(t *Tree[K, V], k K) (int, bool) {
	i := sort.Search(len(n.keys), func(i int) bool { return !t.less(n.keys[i], k) })
	if i < len(n.keys) && !t.less(k, n.keys[i]) {
		return i, true
	}
	return i, false
}

func (n *leaf[K, V]) firstLeaf() *leaf[K, V] { return n }

func (n *leaf[K, V]) insert(t *Tree[K, V], k K, v V) (K, node[K, V], bool, bool) {
	i, found := n.find(t, k)
	added := !found
	if found {
		n.vals[i] = v
	} else {
		n.keys = append(n.keys, k)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = k
		n.vals = append(n.vals, v)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = v
	}
	if len(n.keys) > t.order {
		mid := len(n.keys) / 2
		sibling := &leaf[K, V]{
			keys: append([]K(nil), n.keys[mid:]...),
			vals: append([]V(nil), n.vals[mid:]...),
			next: n.next,
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		n.next = sibling
		return sibling.keys[0], sibling, true, added
	}
	var zero K
	return zero, nil, false, added
}

// CheckInvariants walks the tree verifying structural invariants; it is
// exported for tests and returns a descriptive error on the first
// violation found.
func (t *Tree[K, V]) CheckInvariants() error {
	count := 0
	var prev *K
	lf := t.root.firstLeaf()
	for lf != nil {
		for i := range lf.keys {
			k := lf.keys[i]
			if prev != nil && !t.less(*prev, k) {
				return fmt.Errorf("btree: leaf keys out of order")
			}
			kc := k
			prev = &kc
			count++
		}
		lf = lf.next
	}
	if count != t.size {
		return fmt.Errorf("btree: leaf chain has %d keys, size says %d", count, t.size)
	}
	return t.checkNode(t.root, t.height)
}

func (t *Tree[K, V]) checkNode(n node[K, V], depth int) error {
	switch x := n.(type) {
	case *leaf[K, V]:
		if depth != 1 {
			return fmt.Errorf("btree: leaf at depth %d, want 1", depth)
		}
	case *interior[K, V]:
		if len(x.children) != len(x.keys)+1 {
			return fmt.Errorf("btree: interior with %d keys, %d children", len(x.keys), len(x.children))
		}
		if len(x.children) > t.order {
			return fmt.Errorf("btree: interior overflow: %d children > order %d", len(x.children), t.order)
		}
		for _, c := range x.children {
			if err := t.checkNode(c, depth-1); err != nil {
				return err
			}
		}
	}
	return nil
}
