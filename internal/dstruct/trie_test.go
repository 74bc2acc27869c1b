package dstruct

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"qei/internal/mem"
)

// trieDictionary is a fixed keyword set shaped like the Snort workload
// (lowercase literals, so shallow states go dense and deep ones stay
// sparse) plus binary keywords spanning the full byte range.
func trieDictionary() ([][]byte, []uint64) {
	rng := rand.New(rand.NewSource(404))
	seen := map[string]bool{}
	var kws [][]byte
	var vals []uint64
	add := func(w []byte) {
		if seen[string(w)] {
			return
		}
		seen[string(w)] = true
		kws = append(kws, w)
		vals = append(vals, uint64(len(kws)))
	}
	for len(kws) < 2000 {
		w := make([]byte, 4+rng.Intn(12))
		for i := range w {
			w[i] = byte('a' + rng.Intn(26))
		}
		add(w)
	}
	for len(kws) < 2300 {
		w := make([]byte, 2+rng.Intn(7))
		rng.Read(w)
		add(w)
	}
	return kws, vals
}

// trieImage builds the dictionary into a fresh address space and
// returns the automaton handle and every byte the build wrote.
func trieImage(t *testing.T) (*Trie, []byte) {
	t.Helper()
	as := newAS()
	start := as.Brk()
	kws, vals := trieDictionary()
	tr := BuildTrie(as, kws, vals)
	img := make([]byte, as.Brk()-start)
	if err := as.Read(start, img); err != nil {
		t.Fatal(err)
	}
	return tr, img
}

// trieLayoutDigest pins BuildTrie's layout: the FNV-1a digest of the
// built image and handle for trieDictionary.
const trieLayoutDigest = "a53d50931d1c2fe7"

// TestTrieLayoutDeterministic builds the same dictionary twice and
// checks the two address-space images are byte-identical and match the
// pinned layout digest, so build-time optimisations cannot reorder
// nodes or edges.
func TestTrieLayoutDeterministic(t *testing.T) {
	tr1, img1 := trieImage(t)
	tr2, img2 := trieImage(t)
	if *tr1 != *tr2 || string(img1) != string(img2) {
		t.Fatal("two builds of the same dictionary differ")
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|", *tr1)
	h.Write(img1)
	if got := fmt.Sprintf("%016x", h.Sum64()); got != trieLayoutDigest {
		t.Fatalf("layout digest %s, pinned %s (%d bytes, %d states)",
			got, trieLayoutDigest, len(img1), tr1.States)
	}
}

// BenchmarkBuildTrie measures compiling the fixed dictionary into a
// fresh address space (the Snort workload's setup cost).
func BenchmarkBuildTrie(b *testing.B) {
	kws, vals := trieDictionary()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildTrie(mem.NewAddressSpace(mem.NewPhysical()), kws, vals)
	}
}
