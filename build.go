package qei

import (
	"fmt"
	"math"

	"qei/internal/dstruct"
	"qei/internal/mem"
)

// BuildOption configures Build and BuildMutable for the structure kinds
// that take extra parameters.
type BuildOption func(*buildConfig)

type buildConfig struct {
	payload int
}

// WithBSTPayload sets the per-node object-body byte count of a KindBST
// build (the JVM object-tree shape). Other kinds ignore it. Default 0.
func WithBSTPayload(n int) BuildOption {
	return func(c *buildConfig) { c.payload = n }
}

// validateKV is the one input check in front of Build and BuildMutable.
// It applies opts and rejects what the Fig. 4 metadata header cannot
// describe: a key without a value (or the reverse), an empty key set,
// ragged keys, or a key length outside the header's 2-byte field
// (1..65535). It also rejects a negative BST payload.
func validateKV(kind StructKind, keys [][]byte, values []uint64, opts []BuildOption) (buildConfig, error) {
	cfg := buildConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	if len(keys) != len(values) {
		return cfg, fmt.Errorf("qei: %d keys but %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return cfg, fmt.Errorf("qei: empty key set")
	}
	l := len(keys[0])
	if l == 0 || l > math.MaxUint16 {
		return cfg, fmt.Errorf("qei: key length %d outside the header's 1..%d", l, math.MaxUint16)
	}
	for i, k := range keys {
		if len(k) != l {
			return cfg, fmt.Errorf("qei: key %d has length %d, want %d", i, len(k), l)
		}
	}
	if kind == KindBST && cfg.payload < 0 {
		return cfg, fmt.Errorf("qei: negative payload %d", cfg.payload)
	}
	return cfg, nil
}

// Build is the table constructor: one entrypoint for every built-in
// structure kind, selected by StructKind, as the Fig. 4 header selects
// the accelerator's firmware by type code. BuildMutable is its
// updatable counterpart.
//
// keys must share one length of 1..65535 bytes; values[i] is reported
// when keys[i] matches. KindCuckoo lays out a DPDK-style two-choice
// bucketed cuckoo table, KindHashTable a chained hash table,
// KindSkipList a sorted skip list, KindBST a binary search tree
// (WithBSTPayload sets its per-node object body), KindLinkedList a
// singly linked list in the given order, and KindBTree a bulk-loaded B+
// tree of fanout 16. For KindTrie the keys are a dictionary's keywords
// (variable length, values non-zero) compiled into an Aho-Corasick
// automaton for Scan queries. KindCustom has no generic builder —
// register firmware and lay the structure out explicitly — and unknown
// kinds return ErrUnknownKind.
func (s *System) Build(kind StructKind, keys [][]byte, values []uint64, opts ...BuildOption) (Table, error) {
	if kind == KindTrie {
		return s.buildTrie(keys, values)
	}
	if kind == KindCustom {
		return Table{}, fmt.Errorf("%w: custom firmware tables have no generic builder", ErrUnknownKind)
	}
	cfg, err := validateKV(kind, keys, values, opts)
	if err != nil {
		return Table{}, err
	}
	var header mem.VAddr
	var keyLen uint16
	switch kind {
	case KindCuckoo:
		c := dstruct.BuildCuckoo(s.m.AS, uint64(len(keys)/2), 8, 0x9E37, keys, values)
		header, keyLen = c.HeaderAddr, c.KeyLen
	case KindHashTable:
		h := dstruct.BuildHashTable(s.m.AS, uint64(len(keys)/4), 0x51ED, keys, values)
		header, keyLen = h.HeaderAddr, h.KeyLen
	case KindSkipList:
		sl := dstruct.BuildSkipList(s.m.AS, 7, keys, values)
		header, keyLen = sl.HeaderAddr, sl.KeyLen
	case KindBST:
		b := dstruct.BuildBST(s.m.AS, 7, cfg.payload, keys, values)
		header, keyLen = b.HeaderAddr, b.KeyLen
	case KindLinkedList:
		l := dstruct.BuildLinkedList(s.m.AS, keys, values)
		header, keyLen = l.HeaderAddr, l.KeyLen
	case KindBTree:
		bt := dstruct.BuildBTree(s.m.AS, 16, keys, values)
		header, keyLen = bt.HeaderAddr, bt.KeyLen
	default:
		return Table{}, fmt.Errorf("%w: %s", ErrUnknownKind, kind)
	}
	return Table{header: header, Kind: kind, KeyLen: int(keyLen)}, nil
}

// buildTrie is the trie arm of Build: keys are the dictionary keywords,
// values the non-zero match reports.
func (s *System) buildTrie(keywords [][]byte, values []uint64) (Table, error) {
	if len(keywords) != len(values) {
		return Table{}, fmt.Errorf("qei: %d keywords but %d values", len(keywords), len(values))
	}
	if len(keywords) == 0 {
		return Table{}, fmt.Errorf("qei: empty dictionary")
	}
	for i, v := range values {
		if v == 0 {
			return Table{}, fmt.Errorf("qei: value %d is zero (reserved for no-match)", i)
		}
	}
	tr := dstruct.BuildTrie(s.m.AS, keywords, values)
	return Table{header: tr.HeaderAddr, Kind: KindTrie, KeyLen: 1}, nil
}
