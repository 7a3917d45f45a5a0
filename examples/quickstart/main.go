// Quickstart: open a Prism store, write, read, scan, delete, and look at
// the engine's view of where values live (PWB on NVM, Value Storage on
// SSD, SVC in DRAM).
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// Zero-value options open a small store over fresh simulated devices:
	// NVM for the key index + HSIT + write buffers, two flash SSDs for
	// value storage, DRAM for the scan-aware value cache.
	store, err := prism.Open(prism.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// Each application thread takes its own handle; handles own a private
	// Persistent Write Buffer and a virtual clock.
	t := store.Thread(0)

	// Writes are durable when Put returns: the value is persisted in the
	// PWB before its HSIT forward pointer is published (§5.4).
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("user%03d", i)
		if err := t.Put([]byte(key), []byte(fmt.Sprintf("profile-%d", i))); err != nil {
			log.Fatal(err)
		}
	}

	v, err := t.Get([]byte("user042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("get user042 -> %s\n", v)

	// Range scans come back in key order, resolved across all media.
	fmt.Println("scan from user040:")
	err = t.Scan([]byte("user040"), 5, func(kv prism.KV) bool {
		fmt.Printf("  %s = %s\n", kv.Key, kv.Value)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}

	if err := t.Delete([]byte("user042")); err != nil {
		log.Fatal(err)
	}
	if _, err := t.Get([]byte("user042")); err == prism.ErrNotFound {
		fmt.Println("user042 deleted")
	}

	// The store's counters are its metrics (METRICS.md): core.ops counts
	// operations by kind, core.read_path value reads by the medium that
	// served them.
	m := store.Metrics()
	fmt.Printf("\nengine counters: puts=%d gets=%d pwbHits=%d svcHits=%d vsReads=%d\n",
		count(m, "core.ops", "op", "put"), count(m, "core.ops", "op", "get"),
		count(m, "core.read_path", "source", "pwb"), count(m, "core.read_path", "source", "svc"),
		count(m, "core.read_path", "source", "vs"))
	fmt.Printf("virtual time consumed by this thread: %.2f ms\n", float64(t.Clk.Now())/1e6)
}

// count reads a counter from the store's metrics, by its METRICS.md name:
// the sum of the series called name that carry labels (key/value pairs).
// A series the store does not export stops the example.
func count(m prism.Metrics, name string, labels ...string) int64 {
	v, ok := m.Lookup(name, labels...)
	if !ok {
		log.Fatalf("no metric %s%v", name, labels)
	}
	return int64(v)
}
