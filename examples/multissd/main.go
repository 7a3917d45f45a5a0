// Multi-SSD example: Prism manages one Value Storage per SSD and spreads
// chunk writes across idle devices (§5.1-5.2), so aggregate bandwidth —
// and therefore write throughput — scales with the array, the Figure 13
// effect.
package main

import (
	"fmt"
	"log"
	"slices"
	"sync"

	"repro"
	"repro/internal/ssd"
)

func main() {
	fmt.Println("LOAD throughput vs number of simulated SSDs (cf. Figure 13):")
	for _, numSSDs := range []int{1, 2, 4, 8} {
		kops := loadThroughput(numSSDs)
		bar := ""
		for i := 0; i < int(kops/10); i++ {
			bar += "#"
		}
		fmt.Printf("  %d SSD(s): %7.1f Kops/sec  %s\n", numSSDs, kops, bar)
	}
}

func loadThroughput(numSSDs int) float64 {
	const threads = 8
	const opsPerThread = 2000
	// Use deliberately modest SSDs (250 MB/s writes) so the array's
	// aggregate bandwidth — not NVM or CPU — is the write-path ceiling,
	// as in the paper's 8-SSD testbed relative to its workload.
	store, err := prism.Open(prism.Options{
		NumThreads:        threads,
		PWBBytesPerThread: 128 << 10, // small PWB: reclamation bandwidth matters
		HSITCapacity:      1 << 17,
		SSDBytes:          64 << 20,
		SVCBytes:          1 << 20,
		SSDConfigs:        slices.Repeat([]ssd.Config{{WriteBandwidth: 250_000_000, ReadBandwidth: 500_000_000}}, numSSDs),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	var wg sync.WaitGroup
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			t := store.Thread(ti)
			value := make([]byte, 1024)
			for i := 0; i < opsPerThread; i++ {
				key := []byte(fmt.Sprintf("t%d-%08d", ti, i))
				if err := t.Put(key, value); err != nil {
					log.Fatal(err)
				}
			}
		}(ti)
	}
	wg.Wait()

	var maxNS int64
	for ti := 0; ti < threads; ti++ {
		if now := store.Thread(ti).Clk.Now(); now > maxNS {
			maxNS = now
		}
	}
	return float64(threads*opsPerThread) / (float64(maxNS) / 1e9) / 1e3
}
