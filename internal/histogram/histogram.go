// Package histogram records latency samples with bounded relative error
// and answers the statistics the paper reports: average, median (p50),
// p99 and p999.
//
// Buckets are log-linear (HdrHistogram-style): 64 linear sub-buckets per
// power of two, giving <1.6 % relative error across nanoseconds to
// minutes with a few KB of memory. Histograms are not safe for concurrent
// use; benchmark threads each record into their own and Merge at the end.
package histogram

import (
	"fmt"
	"math/bits"
)

const (
	subBucketBits  = 6
	subBuckets     = 1 << subBucketBits // 64
	maxExponent    = 40                 // covers ~18 minutes in ns
	totalBuckets   = (maxExponent + 1) * subBuckets
	firstLinearMax = subBuckets // values < 64 map 1:1
)

// NumBuckets is the number of log-linear buckets. Exported so concurrent
// recorders (internal/obs) can reuse this package's bucket layout with
// their own atomic counts.
const NumBuckets = totalBuckets

// BucketIndex returns the bucket a sample falls into (0 <= i < NumBuckets).
func BucketIndex(v int64) int { return bucketOf(v) }

// Percentile is the one percentile walk over this package's bucket layout:
// the approximate p-th percentile (0 < p <= 100) of total samples, none
// above hi, of which count(b) fell into bucket b — the representative
// (upper-edge) value of the bucket holding the sample of that rank, capped
// at hi, or 0 when there are none. H reads its own counts; a concurrent
// recorder (internal/obs) reads its atomic ones.
func Percentile(p float64, total, hi int64, count func(b int) int64) int64 {
	if total == 0 {
		return 0
	}
	rank := min(max(int64(p/100*float64(total)), 1), total)
	var seen int64
	for b := range NumBuckets {
		if seen += count(b); seen >= rank {
			return min(valueOf(b), hi)
		}
	}
	return hi
}

// H is a latency histogram over non-negative int64 samples (nanoseconds).
// The zero value is ready to use.
type H struct {
	counts [totalBuckets]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// New returns an empty histogram.
func New() *H { return &H{min: -1} }

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < firstLinearMax {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v), >= 6
	if exp > maxExponent {
		exp = maxExponent
		v = 1 << maxExponent
	}
	sub := (v >> (uint(exp) - subBucketBits)) & (subBuckets - 1)
	return (exp-subBucketBits+1)*subBuckets + int(sub)
}

// valueOf returns a representative (upper-edge) value for bucket b.
func valueOf(b int) int64 {
	if b < firstLinearMax {
		return int64(b)
	}
	exp := b/subBuckets + subBucketBits - 1
	sub := int64(b % subBuckets)
	base := int64(1) << uint(exp)
	return base + (sub+1)<<(uint(exp)-subBucketBits) - 1
}

// Record adds one sample.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples recorded.
func (h *H) Count() int64 { return h.total }

// Mean returns the average sample, or 0 if empty.
func (h *H) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Min returns the smallest sample, or 0 if empty.
func (h *H) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Percentile returns the approximate p-th percentile (0 < p <= 100).
func (h *H) Percentile(p float64) int64 {
	return Percentile(p, h.total, h.max, func(b int) int64 { return h.counts[b] })
}

// Merge adds all of other's samples into h.
func (h *H) Merge(other *H) {
	if other == nil || other.total == 0 {
		return
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	h.total += other.total
	h.sum += other.sum
	if h.min < 0 || (other.min >= 0 && other.min < h.min) {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Summary is the latency row the paper's tables report, in microseconds.
type Summary struct {
	Count  int64
	MinUS  float64
	AvgUS  float64
	P50US  float64
	P99US  float64
	P999US float64
	MaxUS  float64
}

// Summarize converts the histogram (ns samples) into a microsecond row.
func (h *H) Summarize() Summary {
	return Summary{
		Count:  h.total,
		MinUS:  float64(h.Min()) / 1e3,
		AvgUS:  h.Mean() / 1e3,
		P50US:  float64(h.Percentile(50)) / 1e3,
		P99US:  float64(h.Percentile(99)) / 1e3,
		P999US: float64(h.Percentile(99.9)) / 1e3,
		MaxUS:  float64(h.max) / 1e3,
	}
}

// String renders the summary like the paper's latency tables.
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.1fus p50=%.1fus p99=%.1fus p99.9=%.1fus", s.AvgUS, s.P50US, s.P99US, s.P999US)
}
