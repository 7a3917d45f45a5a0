// Package ycsb generates the workloads of the paper's evaluation
// (Table 2): YCSB LOAD and A-E with zipfian, scrambled-zipfian, latest,
// and uniform request distributions, plus the Nutanix production mix of
// §7.5 (57% updates, 41% reads, 2% scans).
//
// The zipfian generator is the Gray et al. rejection-free algorithm used
// by the original YCSB; scrambling hashes ranks over the keyspace so hot
// keys are spread rather than clustered.
package ycsb

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/sim"
)

// OpKind is a workload operation type.
type OpKind uint8

// Operation kinds.
const (
	OpInsert OpKind = iota
	OpRead
	OpUpdate
	OpScan
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpScan:
		return "scan"
	}
	return "?"
}

// Op is one generated request.
type Op struct {
	Kind    OpKind
	Key     []byte
	ScanLen int // for OpScan
}

// Key renders record number i as a YCSB-style key with a fixed width, so
// lexicographic order equals numeric order (scans work naturally).
func Key(i uint64) []byte {
	return []byte(fmt.Sprintf("user%012d", i))
}

// Workload identifies a Table 2 workload.
type Workload byte

// Workloads of Table 2 plus the Nutanix production mix (§7.5).
const (
	Load      Workload = 'L' // write-only: 100% inserts
	WorkloadA Workload = 'A' // 50% updates, 50% reads
	WorkloadB Workload = 'B' // 5% updates, 95% reads
	WorkloadC Workload = 'C' // read-only
	WorkloadD Workload = 'D' // read-latest: 5% updates, 95% reads
	WorkloadE Workload = 'E' // scan-intensive: 5% updates, 95% scans
	Nutanix   Workload = 'N' // 57% updates, 41% reads, 2% scans
)

// Mix is an operation mix in percent (must sum to 100).
type Mix struct {
	InsertPct, ReadPct, UpdatePct, ScanPct int
}

// MixOf returns the op mix for a workload.
func MixOf(w Workload) Mix {
	switch w {
	case Load:
		return Mix{InsertPct: 100}
	case WorkloadA:
		return Mix{UpdatePct: 50, ReadPct: 50}
	case WorkloadB:
		return Mix{UpdatePct: 5, ReadPct: 95}
	case WorkloadC:
		return Mix{ReadPct: 100}
	case WorkloadD:
		return Mix{UpdatePct: 5, ReadPct: 95}
	case WorkloadE:
		return Mix{UpdatePct: 5, ScanPct: 95}
	case Nutanix:
		return Mix{UpdatePct: 57, ReadPct: 41, ScanPct: 2}
	}
	panic(fmt.Sprintf("ycsb: unknown workload %q", byte(w)))
}

// maxScanLen bounds a scan's length, drawn uniformly from [1, maxScanLen]
// (YCSB's default: 100, avg ~50).
const maxScanLen = 100

// Config parameterizes a workload run.
type Config struct {
	Workload    Workload
	Records     uint64  // loaded record count (keyspace size)
	Zipfian     float64 // request-distribution skew; 0 disables (uniform)
	ValueSize   int     // bytes per value; default 1024 (paper: 1 KB)
	InsertStart uint64  // next record number for inserts (default Records)
}

func (c *Config) applyDefaults() {
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
	if c.Zipfian == 0 && c.Workload != Load {
		c.Zipfian = 0.99
	}
	if c.InsertStart == 0 {
		c.InsertStart = c.Records
	}
}

// Shared is generator state common to all threads of one run: the insert
// cursor (so concurrent inserts pick unique record numbers, and the
// latest distribution knows the newest record).
type Shared struct {
	inserted atomic.Uint64
}

// NewShared creates the shared state for a run over cfg.Records records.
func NewShared(cfg Config) *Shared {
	cfg.applyDefaults()
	s := &Shared{}
	s.inserted.Store(cfg.InsertStart)
	return s
}

// Count returns the current total record count.
func (s *Shared) Count() uint64 { return s.inserted.Load() }

// Generator produces the request stream for one thread.
type Generator struct {
	cfg    Config
	mix    Mix
	rng    *sim.RNG
	zipf   *Zipfian
	shared *Shared
	valBuf []byte
	ctr    uint64
}

// NewGenerator creates a per-thread generator. Generators sharing a
// Shared coordinate inserts; each must have its own seed.
func NewGenerator(cfg Config, shared *Shared, seed uint64) *Generator {
	cfg.applyDefaults()
	g := &Generator{
		cfg:    cfg,
		mix:    MixOf(cfg.Workload),
		rng:    sim.NewRNG(seed),
		shared: shared,
		valBuf: make([]byte, cfg.ValueSize),
	}
	if cfg.Zipfian > 0 && cfg.Records > 0 {
		g.zipf = NewZipfian(cfg.Records, cfg.Zipfian)
	}
	return g
}

// chooseExisting picks a record number among the loaded ones according
// to the request distribution.
func (g *Generator) chooseExisting() uint64 {
	n := g.shared.Count()
	if n == 0 {
		return 0
	}
	if g.cfg.Workload == WorkloadD {
		// Latest: skew toward the most recently inserted records.
		var off uint64
		if g.zipf != nil {
			off = g.zipf.Next(g.rng)
		} else {
			off = g.rng.Uint64()
		}
		return n - 1 - off%n
	}
	if g.zipf == nil {
		return g.rng.Uint64() % n
	}
	r := g.zipf.Next(g.rng)
	// Scramble so hot ranks spread over the keyspace (YCSB scrambled
	// zipfian), then clamp into the live range.
	return fnv64(r) % n
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	g.ctr++
	p := g.rng.Intn(100)
	switch {
	case p < g.mix.InsertPct:
		id := g.shared.inserted.Add(1) - 1
		return Op{Kind: OpInsert, Key: Key(id)}
	case p < g.mix.InsertPct+g.mix.UpdatePct:
		return Op{Kind: OpUpdate, Key: Key(g.chooseExisting())}
	case p < g.mix.InsertPct+g.mix.UpdatePct+g.mix.ReadPct:
		return Op{Kind: OpRead, Key: Key(g.chooseExisting())}
	default:
		return Op{Kind: OpScan, Key: Key(g.chooseExisting()), ScanLen: 1 + g.rng.Intn(maxScanLen)}
	}
}

// Value fills and returns the generator's value buffer for key id — a
// deterministic, compressible-realistic payload of ValueSize bytes. The
// buffer is reused across calls.
func (g *Generator) Value(id uint64) []byte {
	b := g.valBuf
	seed := id*0x9e3779b97f4a7c15 + g.ctr
	for i := 0; i+8 <= len(b); i += 8 {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		for j := 0; j < 8; j++ {
			b[i+j] = byte(seed >> (8 * uint(j)))
		}
	}
	return b
}

func fnv64(v uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// Zipfian draws ranks in [0, items) with P(rank) proportional to
// 1/(rank+1)^theta, using the Gray et al. closed-form method (the YCSB
// generator).
type Zipfian struct {
	items        uint64
	theta        float64
	alpha        float64
	zetan        float64
	eta          float64
	halfPowTheta float64
}

// NewZipfian precomputes the distribution constants. Cost is O(items).
func NewZipfian(items uint64, theta float64) *Zipfian {
	if items == 0 {
		panic("ycsb: zipfian over empty set")
	}
	z := &Zipfian{items: items, theta: theta}
	z.zetan = zeta(items, theta)
	zeta2 := zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - zeta2/z.zetan)
	z.halfPowTheta = 1.0 + math.Pow(0.5, theta)
	return z
}

func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(0); i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
	}
	return sum
}

// Next draws a rank (0 = hottest).
func (z *Zipfian) Next(rng *sim.RNG) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.halfPowTheta {
		return 1
	}
	r := uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1.0, z.alpha))
	if r >= z.items {
		r = z.items - 1
	}
	return r
}
