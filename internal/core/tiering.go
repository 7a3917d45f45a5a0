package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/ssd"
)

// ---- tier selection ----

// tiered reports whether hot/cold steering is active: asked for, and on
// an array with two distinguishable devices.
func (s *Store) tiered() bool { return s.opt.EnableTiering && s.tierFast != s.tierCap }

// pickTiers returns the fastest device (highest write bandwidth, ties
// broken by lower write latency then lower index) and the capacity
// device (largest, ties broken toward any device other than fast so a
// homogeneous two-device array still yields distinct tiers).
func pickTiers(devs []*ssd.Device) (fast, capacity int) {
	for i, d := range devs {
		c, f := d.Config(), devs[fast].Config()
		if c.WriteBandwidth > f.WriteBandwidth ||
			(c.WriteBandwidth == f.WriteBandwidth && c.WriteLatency < f.WriteLatency) {
			fast = i
		}
	}
	for i, d := range devs {
		c, k := d.Config(), devs[capacity].Config()
		if c.Size > k.Size || (c.Size == k.Size && capacity == fast && i != fast) {
			capacity = i
		}
	}
	return fast, capacity
}

// hotIdx is the reclaim- and demotion-time classification: written at
// least twice or read, recently. Two DRAM bit tests; the read plane
// stands in for "in the SVC, or was", since every path into the cache
// sets or requires that bit.
func (s *Store) hotIdx(idx uint64) bool {
	return s.pop.again.has(idx) || s.cache != nil && s.pop.read.has(idx)
}

// ---- adaptive reclamation watermark ----

// The controller is AIMD over the PWB utilization trigger. Decay is
// driven only by genuine put-latency events: a ring-full stall
// (reclamation started too late — multiplicative decrease buys the next
// burst headroom), or, in SyncVSWrites mode, a put absorbing an inline
// reclaim pass (the pass cost IS that put's stall, and it scales with
// the trigger). A background pass that completes without any concurrent
// stall additively raises the trigger back, recovering batching
// efficiency. Pass frequency or duration is deliberately NOT a decay
// signal: lowering the trigger makes passes more frequent, so
// "passes dominate the timeline" feeds back on itself and pins the
// trigger at the floor even under stall-free steady load.
const (
	wmStart = 0.5  // §4.3 default, also the adaptive starting point
	wmFloor = 0.10 // never reclaim below 10% utilization
	wmCeil  = 0.90 // never wait beyond 90%
	wmDecay = 0.7  // multiplicative decrease on a put stall
	wmStep  = 0.02 // additive increase on a stall-free reclaim pass
)

// effectiveWatermark is the trigger currently in force (the fixed
// Options.ReclaimWatermark when non-zero, else the controller's value).
func (s *Store) effectiveWatermark() float64 {
	return math.Float64frombits(s.watermark.Load())
}

func (s *Store) adaptWatermark(up bool) {
	if !s.adaptiveWM {
		return
	}
	for {
		old := s.watermark.Load()
		w := math.Float64frombits(old)
		if up {
			w += wmStep
			if w > wmCeil {
				w = wmCeil
			}
		} else {
			w *= wmDecay
			if w < wmFloor {
				w = wmFloor
			}
		}
		if s.watermark.CompareAndSwap(old, math.Float64bits(w)) {
			return
		}
	}
}

// ---- background maintenance ----

// maintenanceLoop is the store's periodic worker: it probes every PWB so
// a store left idle above the watermark still reclaims (a write's probe
// in untilApplied goes silent when traffic stops), helps epoch collection
// along, and paces the tiering demotion scan one chunk at a time. No
// request hands the tick a time, so its kicks start at the NVM channel's
// present.
func (s *Store) maintenanceLoop() {
	defer s.bg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	t := s.newThread(0, nil, nil, nil)
	cursor := 0
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			if !s.opt.SyncVSWrites {
				for i, b := range s.pwbs {
					if b.Utilization() >= s.effectiveWatermark() {
						kick(s.reclaimChs[i], s.nvmDev.Now())
					}
				}
			}
			s.em.Collect()
			cursor = s.demoteStep(t, cursor)
		}
	}
}

// demoteStep runs one increment of the background demotion pass on t:
// when the fast tier is more than half full, relocate the cold records of
// one chunk to the capacity tier. No request hands it a time, so it
// starts at the NVM channel's present. The cursor makes successive ticks
// sweep the whole fast store instead of re-scanning its head.
func (s *Store) demoteStep(t *Thread, cursor int) int {
	if !s.tiered() {
		return cursor
	}
	fastSt := s.vsm.Stores[s.tierFast]
	if fastSt.FreeChunks()*2 > fastSt.Chunks() {
		return cursor
	}
	t.Clk.AdvanceTo(s.nvmDev.Now())
	capSt := s.vsm.Stores[s.tierCap]
	next, moved, bytes := fastSt.DemoteChunk(t.Clk, cursor, capSt, s.gcReserve(capSt),
		func(idx uint64) bool { return !s.hotIdx(idx) }, s.relocate(t, s.tierFast, s.tierCap))
	if moved > 0 {
		s.stats.tierDemotions.Add(int64(moved))
		s.stats.tierDemotedBytes.Add(bytes)
		s.maybeKickGC(s.tierCap, t.Clk.Now())
	}
	s.em.Collect()
	return next
}

// ---- tier spec parsing (cmd tools) ----

// ParseTierSpec parses the -tiers flag: a comma-separated device list,
// each "size[:writeMBps[:readMBps]]" with K/M/G size suffixes, e.g.
// "64M:5000,512M:2000:3000" for a small fast device plus a large slow
// one. Omitted bandwidths keep the paper's defaults. An empty spec
// returns nil (homogeneous array from NumSSDs/SSDBytes).
func ParseTierSpec(spec string) ([]ssd.Config, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []ssd.Config
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("tier spec %q: want size[:writeMBps[:readMBps]]", part)
		}
		size, err := parseSizeBytes(fields[0])
		if err != nil {
			return nil, fmt.Errorf("tier spec %q: %v", part, err)
		}
		var c ssd.Config
		c.Size = size
		if len(fields) > 1 {
			mbps, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || mbps <= 0 {
				return nil, fmt.Errorf("tier spec %q: bad write MB/s %q", part, fields[1])
			}
			c.WriteBandwidth = mbps * 1_000_000
		}
		if len(fields) > 2 {
			mbps, err := strconv.ParseInt(fields[2], 10, 64)
			if err != nil || mbps <= 0 {
				return nil, fmt.Errorf("tier spec %q: bad read MB/s %q", part, fields[2])
			}
			c.ReadBandwidth = mbps * 1_000_000
		}
		out = append(out, c)
	}
	return out, nil
}

func parseSizeBytes(v string) (int64, error) {
	v = strings.TrimSpace(v)
	mult := int64(1)
	if n := len(v); n > 0 {
		switch v[n-1] {
		case 'k', 'K':
			mult, v = 1<<10, v[:n-1]
		case 'm', 'M':
			mult, v = 1<<20, v[:n-1]
		case 'g', 'G':
			mult, v = 1<<30, v[:n-1]
		}
	}
	b, err := strconv.ParseInt(v, 10, 64)
	if err != nil || b <= 0 {
		return 0, fmt.Errorf("bad size %q", v)
	}
	return b * mult, nil
}
