package shard

import (
	"bytes"
	"testing"
)

// FuzzBoundaryTable drives the boundary table's live constructors with
// keys chunked out of arbitrary bytes (the placement analogue of the RESP
// FuzzParse): split-key selection (SelectSplitKeys), the Open-time table
// (newBoundaryTable, over the selected splits and over the raw, unsorted
// keys) and online splits (withSplit). Invariants: no panic;
// SelectSplitKeys returns a strictly increasing subset of its input; and
// every table built is well-formed (checkTable) — a split keeps its
// range's owner on both halves, and re-splitting at a bound is refused.
func FuzzBoundaryTable(f *testing.F) {
	// The first byte picks the key length (1 + b%7) and the length of the
	// input the shard count (2 + len%7).
	f.Add([]byte{})
	f.Add([]byte("m"))
	f.Add([]byte("\x00bcxbbx"))                                       // one-byte keys, duplicates
	f.Add([]byte("\x03user00000050user00000100user00000150"))         // four-byte keys
	f.Add(bytes.Repeat([]byte{0x80}, 64))                             // one three-byte key, repeated
	f.Add([]byte("\x01zzyyxxwwvvuu"))                                 // two-byte keys, descending
	f.Add([]byte("\x07\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00")) // zero bytes
	f.Add(bytes.Repeat([]byte("\x06abcdefghijklm"), 200))             // past the 256-key cap
	f.Add([]byte("\x02aaabbbaabaaaabab"))                             // three-byte keys, two letters
	f.Add([]byte("\x05\xff\xff\xff\xff\xff\xfe\xff\xff\xff\xff\xff")) // six-byte keys, high bytes

	const shards = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		chunk := 1
		if len(data) > 0 {
			chunk = 1 + int(data[0]%7)
		}
		var keys [][]byte
		for i := 0; i+chunk <= len(data) && len(keys) < 256; i += chunk {
			keys = append(keys, data[i:i+chunk])
		}
		n := 2 + len(data)%7
		splits := SelectSplitKeys(keys, n)
		if len(splits) > n-1 {
			t.Fatalf("%d splits for n=%d", len(splits), n)
		}
		for i, sp := range splits {
			if len(sp) == 0 {
				t.Fatal("empty split key selected")
			}
			if i > 0 && bytes.Compare(splits[i-1], sp) >= 0 {
				t.Fatalf("splits not strictly increasing at %d", i)
			}
			member := false
			for _, k := range keys {
				if bytes.Equal(k, sp) {
					member = true
					break
				}
			}
			if !member {
				t.Fatalf("split %q is not one of the input keys", sp)
			}
		}
		bt, err := newBoundaryTable(splits, shards)
		if err != nil {
			t.Fatalf("newBoundaryTable rejected selected splits: %v", err)
		}
		if bt.ranges() != len(splits)+1 {
			t.Fatalf("table has %d ranges for %d splits", bt.ranges(), len(splits))
		}
		checkTable(t, bt, shards)

		raw, err := newBoundaryTable(keys, shards)
		if err != nil {
			t.Fatalf("newBoundaryTable rejected %d non-empty keys: %v", len(keys), err)
		}
		checkTable(t, raw, shards)

		// Split the selected table online at every input key.
		for _, k := range keys {
			r := bt.rangeOf(k)
			nt, ok := bt.withSplit(k)
			if !ok {
				if r == 0 || !bytes.Equal(bt.bounds[r-1], k) {
					t.Fatalf("withSplit(%q) refused a key that is not a bound", k)
				}
				continue
			}
			checkTable(t, nt, shards)
			if nt.ranges() != bt.ranges()+1 {
				t.Fatalf("a split made %d ranges of %d", nt.ranges(), bt.ranges())
			}
			if nt.owner[r] != bt.owner[r] || nt.owner[r+1] != bt.owner[r] {
				t.Fatalf("split of range %d (owner %d) gave halves owners %d and %d", r, bt.owner[r], nt.owner[r], nt.owner[r+1])
			}
			if _, again := nt.withSplit(k); again {
				t.Fatalf("withSplit(%q) split again at its own bound", k)
			}
			bt = nt
		}
	})
}

// checkTable fails t unless bt is well-formed: 1 to maxRanges ranges, one
// bound fewer, bounds non-empty and strictly increasing, each bound in the
// range to its right (lower bounds are inclusive), owners hashOwned or a
// shard.
func checkTable(t *testing.T, bt *boundaryTable, shards int) {
	t.Helper()
	if bt.ranges() < 1 || bt.ranges() > maxRanges {
		t.Fatalf("range count %d out of bounds", bt.ranges())
	}
	if len(bt.bounds) != bt.ranges()-1 {
		t.Fatalf("%d bounds for %d ranges", len(bt.bounds), bt.ranges())
	}
	for i, b := range bt.bounds {
		if len(b) == 0 {
			t.Fatal("empty bound")
		}
		if i > 0 && bytes.Compare(bt.bounds[i-1], b) >= 0 {
			t.Fatalf("bounds not strictly increasing at %d", i)
		}
		if r := bt.rangeOf(b); r != i+1 {
			t.Fatalf("rangeOf(bounds[%d]) = %d, want %d", i, r, i+1)
		}
	}
	for i, o := range bt.owner {
		if o < hashOwned || o >= shards {
			t.Fatalf("owner[%d] = %d out of range", i, o)
		}
	}
}
