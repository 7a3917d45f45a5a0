package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRetireRunsAfterTwoEpochs(t *testing.T) {
	m := NewManager()
	p := m.Register()
	var ran atomic.Bool

	p.Enter()
	m.Retire(func(uint64) { ran.Store(true) }, 0)
	if m.Collect() != 0 {
		t.Fatal("reclaimed while participant active in retire epoch")
	}
	p.Exit()

	// Two advances must pass before the callback runs.
	m.Collect()
	m.Collect()
	m.Collect()
	if !ran.Load() {
		t.Fatal("callback never ran after participant exited")
	}
}

func TestActiveParticipantBlocksAdvance(t *testing.T) {
	m := NewManager()
	p1 := m.Register()
	p2 := m.Register()
	_ = p2 // idle participant must not block

	p1.Enter()
	e := m.Epoch()
	m.Collect() // p1 pinned current epoch: advance allowed once...
	m.Collect()
	// p1 is still pinned to epoch e, so global can advance at most to e+1.
	if m.Epoch() > e+1 {
		t.Fatalf("epoch advanced to %d while participant pinned %d", m.Epoch(), e)
	}
	p1.Exit()
	m.Collect()
	m.Collect()
	if m.Epoch() < e+2 {
		t.Fatalf("epoch stuck at %d after exit", m.Epoch())
	}
}

func TestBarrierReclaimsEverything(t *testing.T) {
	m := NewManager()
	_ = m.Register()
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		m.Retire(func(uint64) { n.Add(1) }, 0)
	}
	m.Barrier()
	if n.Load() != 100 {
		t.Fatalf("barrier reclaimed %d of 100", n.Load())
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after barrier", m.Pending())
	}
}

// The core safety property: an object retired while readers may still
// hold it is never reclaimed until those readers exit.
func TestNoUseAfterReclaimUnderConcurrency(t *testing.T) {
	m := NewManager()
	const readers = 4
	const rounds = 2000

	type node struct {
		alive atomic.Bool
		val   int
	}
	var current atomic.Pointer[node]
	first := &node{val: 1}
	first.alive.Store(true)
	current.Store(first)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var fail atomic.Bool

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := m.Register()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Enter()
				n := current.Load()
				if !n.alive.Load() {
					fail.Store(true)
				}
				p.Exit()
			}
		}()
	}

	for i := 0; i < rounds; i++ {
		old := current.Load()
		nw := &node{val: old.val + 1}
		nw.alive.Store(true)
		current.Store(nw)
		m.Retire(func(uint64) { old.alive.Store(false) }, 0)
		if i%16 == 0 {
			m.Collect()
		}
	}
	close(stop)
	wg.Wait()
	m.Barrier()
	if fail.Load() {
		t.Fatal("reader observed a reclaimed node")
	}
}

func TestRetireFromManyGoroutines(t *testing.T) {
	m := NewManager()
	_ = m.Register()
	var n atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Retire(func(uint64) { n.Add(1) }, 0)
			}
		}()
	}
	wg.Wait()
	m.Barrier()
	if n.Load() != 4000 {
		t.Fatalf("reclaimed %d of 4000", n.Load())
	}
}

func TestDiscardRetired(t *testing.T) {
	m := NewManager()
	_ = m.Register()
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		m.Retire(func(uint64) { ran.Add(1) }, 0)
	}
	m.DiscardRetired()
	m.Barrier()
	if ran.Load() != 0 {
		t.Fatalf("%d discarded callbacks ran", ran.Load())
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after discard", m.Pending())
	}
	// The manager must keep working afterwards.
	m.Retire(func(uint64) { ran.Add(1) }, 0)
	m.Barrier()
	if ran.Load() != 1 {
		t.Fatalf("post-discard retirement did not run")
	}
}
