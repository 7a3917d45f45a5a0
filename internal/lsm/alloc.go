package lsm

import (
	"fmt"
	"sort"
	"sync"
)

// ExtentAlloc is a first-fit extent allocator with coalescing: it places
// SSTables here and SLM-DB's data files on their devices. It is safe for
// concurrent use.
type ExtentAlloc struct {
	mu   sync.Mutex
	free []extent // sorted by offset, non-adjacent
}

type extent struct {
	off, n int64
}

// NewExtentAlloc returns an allocator over [0, size).
func NewExtentAlloc(size int64) *ExtentAlloc {
	return &ExtentAlloc{free: []extent{{0, size}}}
}

// Alloc reserves n bytes, first-fit.
func (a *ExtentAlloc) Alloc(n int64) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.free {
		if a.free[i].n >= n {
			off := a.free[i].off
			a.free[i].off += n
			a.free[i].n -= n
			if a.free[i].n == 0 {
				a.free = append(a.free[:i], a.free[i+1:]...)
			}
			return off, nil
		}
	}
	return 0, fmt.Errorf("lsm: no extent of %d bytes free", n)
}

// Release returns [off, off+n) to the free list, coalescing neighbors.
func (a *ExtentAlloc) Release(off, n int64) {
	if n == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off >= off })
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = extent{off, n}
	// Coalesce with right then left neighbor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].n == a.free[i+1].off {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].n == a.free[i].off {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// freeBytes reports total free space (tests).
func (a *ExtentAlloc) freeBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t int64
	for _, e := range a.free {
		t += e.n
	}
	return t
}
