package qei

import (
	"errors"
	"fmt"
	"math/rand"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// Update operations. Per the paper (Sec. IV-A), QEI accelerates queries
// only; inserts and deletes remain software routines. Because the
// accelerator and the cores read the same coherent simulated memory, a
// Query issued immediately after an update observes it.
//
// Consistency between writers and in-flight queries follows the
// epoch-based protocol of internal/epoch: every query pins the current
// epoch at QST admission, mutators retire unlinked nodes into the
// epoch's limbo list instead of freeing them, and the allocator only
// reuses a node's memory once the QST has drained past the retiring
// epoch. A query that raced an unlink therefore still walks valid (if
// stale) bytes — the snapshot-at-admission semantics the paper's
// read-intensive usage model assumes — and the read-after-retire
// watcher (epoch/read_after_retire) proves the protocol holds.
//
// Tables returned by Build are immutable descriptors; to mutate a
// structure, create it with BuildMutable, which returns a handle
// carrying the mutation state.

// defaultMaxLoad is the cuckoo load-factor ceiling that triggers an
// online rehash before the kick loop starts thrashing (DPDK resizes in
// the same regime). SetMaxLoadFactor overrides it per table.
const defaultMaxLoad = 0.85

// mutableBTreeFanout is deliberately smaller than Build's read-only B+
// tree fanout of 16 so streaming workloads exercise node splits and
// merges at experiment scale rather than only at millions of keys.
const mutableBTreeFanout = 8

// MutStats counts a mutable table's software-routine activity. The
// streaming experiment asserts the structural-maintenance paths
// (rehash, split, merge, rebuild) actually ran.
type MutStats struct {
	// Inserts and Deletes count successful operations (Deletes only
	// those that removed a present key).
	Inserts uint64
	Deletes uint64
	// Rehashes counts online cuckoo bucket-array doublings; Rebuilds
	// counts BST scapegoat rebuilds.
	Rehashes uint64
	Rebuilds uint64
	// Splits and Merges count B+-tree node rebalances.
	Splits uint64
	Merges uint64
	// RetiredNodes counts extents handed to the epoch GC's limbo list.
	RetiredNodes uint64
}

// MutableTable wraps a Table with software update operations.
type MutableTable struct {
	Table
	sys     *System
	ck      *dstruct.Cuckoo
	sl      *dstruct.SkipList
	bs      *dstruct.BST
	ll      *dstruct.LinkedList
	bt      *dstruct.BTree
	rng     *rand.Rand
	maxLoad float64
	stats   MutStats
}

// BuildMutable builds an updatable table of the given kind. It lays out
// the structure Build would, with room to grow: a cuckoo table gets one
// bucket per key instead of one per two, and a B+ tree uses the smaller
// mutableBTreeFanout so update streams exercise splits and merges. It
// takes the same keys and options as Build (WithBSTPayload for
// KindBST). Kinds without software mutators (hash-table chains, tries)
// return ErrUnsupportedOp.
func (s *System) BuildMutable(kind StructKind, keys [][]byte, values []uint64, opts ...BuildOption) (*MutableTable, error) {
	switch kind {
	case KindCuckoo, KindSkipList, KindBST, KindLinkedList, KindBTree:
	case KindHashTable, KindTrie:
		return nil, fmt.Errorf("%w: no mutable builder for %s", ErrUnsupportedOp, kind)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnknownKind, kind)
	}
	cfg, err := validateKV(kind, keys, values, opts)
	if err != nil {
		return nil, err
	}
	s.ensureGC()
	t := &MutableTable{sys: s}
	var header mem.VAddr
	var keyLen uint16
	switch kind {
	case KindCuckoo:
		t.ck = dstruct.BuildCuckoo(s.m.AS, uint64(len(keys)), 8, 0x9E37, keys, values)
		t.maxLoad = defaultMaxLoad
		header, keyLen = t.ck.HeaderAddr, t.ck.KeyLen
	case KindSkipList:
		t.sl = dstruct.BuildSkipList(s.m.AS, 7, keys, values)
		t.rng = rand.New(rand.NewSource(s.seed))
		header, keyLen = t.sl.HeaderAddr, t.sl.KeyLen
	case KindBST:
		t.bs = dstruct.BuildBST(s.m.AS, 7, cfg.payload, keys, values)
		header, keyLen = t.bs.HeaderAddr, t.bs.KeyLen
	case KindLinkedList:
		t.ll = dstruct.BuildLinkedList(s.m.AS, keys, values)
		header, keyLen = t.ll.HeaderAddr, t.ll.KeyLen
	case KindBTree:
		t.bt = dstruct.BuildBTree(s.m.AS, mutableBTreeFanout, keys, values)
		header, keyLen = t.bt.HeaderAddr, t.bt.KeyLen
	}
	t.Table = Table{header: header, Kind: kind, KeyLen: int(keyLen)}
	return t, nil
}

// SetMaxLoadFactor overrides the cuckoo load-factor ceiling that
// triggers an online rehash (default 0.85). The streaming experiment
// lowers it to force a rehash at experiment scale. It is ignored for
// non-cuckoo tables.
func (t *MutableTable) SetMaxLoadFactor(f float64) {
	if f > 0 {
		t.maxLoad = f
	}
}

// MutStats reports the table's accumulated mutation activity.
func (t *MutableTable) MutStats() MutStats {
	st := t.stats
	if t.bt != nil {
		st.Splits = uint64(t.bt.Splits)
		st.Merges = uint64(t.bt.Merges)
	}
	return st
}

// retire hands freed node extents to the epoch GC's limbo list; their
// memory is reused only after every query admitted before this point
// has drained from the QST.
func (t *MutableTable) retire(exts ...mem.Extent) {
	for _, e := range exts {
		if e.Size == 0 {
			continue
		}
		t.sys.gc.Retire(e)
		t.stats.RetiredNodes++
	}
}

// Insert adds or updates a key/value pair in software. The cycle cost of
// the software routine is not modelled (updates are rare in the paper's
// read-intensive target workloads); its memory effects are — new nodes
// come from the epoch-aware allocator and replaced structures are
// retired, not freed.
func (t *MutableTable) Insert(key []byte, value uint64) error {
	as, gc := t.sys.m.AS, t.sys.gc
	var err error
	switch {
	case t.ck != nil:
		err = t.insertCuckoo(key, value)
	case t.sl != nil:
		err = t.sl.Insert(as, gc, t.rng, key, value)
	case t.bs != nil:
		err = t.insertBST(key, value)
	case t.bt != nil:
		_, err = t.bt.Insert(as, gc, key, value)
	case t.ll != nil:
		// Upsert is copy-on-write: unlink and retire the key's old node,
		// then prepend the new one, so the list never holds two copies.
		var ok bool
		var e mem.Extent
		if ok, e, err = t.ll.Remove(as, key); err == nil {
			if ok {
				t.retire(e)
			}
			err = t.ll.InsertFront(as, gc, key, value)
		}
	default:
		return fmt.Errorf("%w: Insert on %s", ErrUnsupportedOp, t.Kind)
	}
	if err != nil {
		return err
	}
	t.stats.Inserts++
	gc.Bump()
	return nil
}

// insertCuckoo inserts with online resizing: a rehash to double the
// buckets fires when the load factor crosses the ceiling, and again if
// the kick loop still reports the table full (bad luck on a dense
// table). The old bucket array is retired, never freed — a query
// admitted against it finishes against it.
func (t *MutableTable) insertCuckoo(key []byte, value uint64) error {
	if t.ck.LoadFactor() >= t.maxLoad {
		if err := t.rehash(t.ck.NBuckets * 2); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err := t.ck.Insert(t.sys.m.AS, key, value)
		if err == nil {
			return nil
		}
		if !errors.Is(err, dstruct.ErrTableFull) || attempt >= 2 {
			return err
		}
		if err := t.rehash(t.ck.NBuckets * 2); err != nil {
			return err
		}
	}
}

// rehash doubles the cuckoo bucket array. Whether the rehash published
// the new array or rolled back to the old one, the extent it returns is
// the array that is now unreachable from the header — retire it.
func (t *MutableTable) rehash(nBuckets uint64) error {
	unreachable, err := t.ck.Rehash(t.sys.m.AS, t.sys.gc, nBuckets)
	t.retire(unreachable)
	if err != nil {
		return err
	}
	t.stats.Rehashes++
	return nil
}

// insertBST inserts and, when the tree has degenerated past the
// scapegoat depth bound, rebuilds it balanced, retiring every old node.
func (t *MutableTable) insertBST(key []byte, value uint64) error {
	as, gc := t.sys.m.AS, t.sys.gc
	if err := t.bs.Insert(as, gc, key, value); err != nil {
		return err
	}
	if t.bs.NeedsRebuild() {
		freed, err := t.bs.Rebuild(as, gc)
		if err != nil {
			return err
		}
		t.retire(freed...)
		t.stats.Rebuilds++
	}
	return nil
}

// Delete removes a key, reporting whether it existed. Unlinked nodes
// are retired to the epoch GC so an in-flight query that already read a
// pointer to one still walks valid bytes. Hash-table chains and tries
// have no mutators and return ErrUnsupportedOp.
func (t *MutableTable) Delete(key []byte) (bool, error) {
	as, gc := t.sys.m.AS, t.sys.gc
	var ok bool
	var err error
	switch {
	case t.ck != nil:
		// Cuckoo deletion clears the entry in place: no node to retire.
		ok, err = t.ck.Delete(as, key)
	case t.sl != nil:
		var e mem.Extent
		ok, e, err = t.sl.Delete(as, key)
		if ok {
			t.retire(e)
		}
	case t.bs != nil:
		var e mem.Extent
		ok, e, err = t.bs.Delete(as, key)
		if ok {
			t.retire(e)
		}
	case t.bt != nil:
		var freed []mem.Extent
		ok, freed, err = t.bt.Delete(as, key)
		t.retire(freed...)
	case t.ll != nil:
		var e mem.Extent
		ok, e, err = t.ll.Remove(as, key)
		if ok {
			t.retire(e)
		}
	default:
		return false, fmt.Errorf("%w: Delete on %s", ErrUnsupportedOp, t.Kind)
	}
	if err != nil {
		return ok, err
	}
	if ok {
		t.stats.Deletes++
	}
	gc.Bump()
	return ok, nil
}

// Query runs an accelerated lookup against the mutable table.
func (t *MutableTable) Query(key []byte) (Result, error) {
	return t.sys.Query(t.Table, key)
}
