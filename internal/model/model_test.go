package model

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestStreamIsPinned fails when the generator, the op mix, the key
// partition or the value format change: a seed that failed before such a
// change no longer replays after it, so it has to be a decision. It also
// holds every client to its own partition.
func TestStreamIsPinned(t *testing.T) {
	cfg := Config{Clients: 2, Keys: 150}
	h := fnv.New64a()
	for c := 0; c < cfg.Clients; c++ {
		g := newGen(1, c, cfg)
		for i := 0; i < 1000; i++ {
			o := g.next()
			fmt.Fprintln(h, o)
			for _, s := range append([]Op{o}, o.Sub...) {
				if s.Kind <= Get && s.Key%cfg.Clients != c {
					t.Fatalf("client %d drew %v, of another partition", c, s)
				}
				if s.Kind == Put {
					h.Write(Value(s.Key, s.Seq))
				}
			}
		}
	}
	if got, want := h.Sum64(), uint64(0x37ea28885caeeb15); got != want {
		t.Errorf("the first 1,000 ops of each client of seed 1 hash to %#x, pinned %#x", got, want)
	}
}
