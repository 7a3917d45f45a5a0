// Scan-heavy example: demonstrate the Scan-aware Value Cache's range
// reorganization (§4.4). A log-structured value store scatters a key
// range across chunks, so a scan costs many SSD reads; after the SVC's
// eviction-time sort-and-rewrite, the range sits contiguously in one
// chunk and later scans coalesce into fewer, larger reads. A scan's
// reads are in flight together, so every scan waits about one SSD read
// latency: what the rewrite saves is IOs (50 -> 1 here), not time. The
// cache admits a scanned row on its second touch — a range scanned once
// costs it nothing and is never rewritten — so the range is scanned twice
// before the flood.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	store, err := prism.Open(prism.Options{
		NumThreads:        1,
		PWBBytesPerThread: 256 << 10,
		HSITCapacity:      1 << 16,
		NumSSDs:           1,
		SSDBytes:          64 << 20,
		SVCBytes:          96 << 10, // small cache so scanned ranges evict quickly
		ChunkSize:         64 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	t := store.Thread(0)

	// Interleave each key of prefix A with a burst of filler keys so
	// consecutive A-keys land several KB apart in the log — too far for
	// the scan path's read-merging to coalesce them.
	const n = 400
	filler := 0
	for i := 0; i < n; i++ {
		if err := t.Put([]byte(fmt.Sprintf("a%06d", i)), make([]byte, 512)); err != nil {
			log.Fatal(err)
		}
		for j := 0; j < 12; j++ {
			filler++
			if err := t.Put([]byte(fmt.Sprintf("b%06d", filler)), make([]byte, 512)); err != nil {
				log.Fatal(err)
			}
		}
	}

	scan := func(label string) {
		before := store.Stats().VSReads
		t0 := t.Clk.Now()
		count := 0
		err := t.Scan([]byte("a000100"), 50, func(kv prism.KV) bool {
			count++
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
		s := store.Stats()
		fmt.Printf("%-28s %2d items, %3d SSD reads, %.1f virtual us\n",
			label, count, s.VSReads-before, float64(t.Clk.Now()-t0)/1e3)
	}

	scan("first scan (scattered):")
	fmt.Printf("rows cached: %d (first touch: remembered, not admitted)\n", store.Stats().SVC.Entries)
	scan("second scan (scattered):")
	fmt.Printf("rows cached: %d (second touch: admitted and chained)\n", store.Stats().SVC.Entries)

	// The scanned values are now chained in the SVC. Flood the cache so
	// the chain evicts, triggering the background sort-and-rewrite of the
	// whole range into one chunk.
	for i := 1; i <= 3000; i++ {
		if _, err := t.Get([]byte(fmt.Sprintf("b%06d", i%filler+1))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cache flooded; scan-range rewrites so far: %d\n", store.Stats().ScanRewrites)

	scan("third scan (reorganized):")
	fmt.Println("\nfewer SSD reads on the third scan = the range was rewritten contiguously")
	fmt.Println("same virtual time = a scan's reads overlap; the rewrite saves IOs, not latency")
}
