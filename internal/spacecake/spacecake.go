// Package spacecake models the memory system and cost structure of the
// Philips SpaceCAKE MPSoC tile the paper evaluates on: up to nine
// TriMedia-class cores, each with a private L1 cache, sharing one L2
// cache in front of DRAM.
//
// The real SpaceCAKE simulator is proprietary and cycle-accurate; this
// package is the documented substitution (see DESIGN.md §2). It is a
// deterministic cost model, not an ISA simulator: compute cycles are
// charged from the kernels' arithmetic-operation counts, and memory
// cycles from simulating the cache-line traffic of the address regions
// each job reads and writes. That captures the two mechanisms the
// paper's relative results depend on — lost cache locality when fused
// kernels are split into stream-connected components, and the latency
// of going through the shared L2/DRAM — while remaining fast and
// host-independent.
package spacecake

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	LineBytes int // line size (power of two)
	Ways      int // associativity
}

func (c CacheConfig) validate(name string) error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("spacecake: %s: non-positive parameter", name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("spacecake: %s: line size %d not a power of two", name, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines%c.Ways != 0 || lines/c.Ways == 0 {
		return fmt.Errorf("spacecake: %s: %d lines not divisible into %d ways", name, lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("spacecake: %s: %d sets not a power of two", name, sets)
	}
	return nil
}

// Config describes a SpaceCAKE tile.
type Config struct {
	Cores int // number of TriMedia cores on the tile (1..MaxCores)

	L1 CacheConfig // private, per core
	L2 CacheConfig // shared

	// Latencies in cycles, charged per cache line transferred.
	L2HitCycles int // L1 miss that hits in L2
	MemCycles   int // L2 miss serviced by DRAM

	// StreamLineCycles is the per-line cost of streamed (DMA/burst)
	// transfers: bulk file input and output that flows past the cache
	// hierarchy at bandwidth rather than latency cost.
	StreamLineCycles int

	// JobOverheadCycles models the Hinch runtime's per-job cost:
	// enqueueing the job, dequeueing it on a core, and the
	// synchronisation needed to retire its dependencies.
	JobOverheadCycles int64
}

// MaxCores is the tile size of the paper's platform: "a tile with at
// most 9 TriMedia cores".
const MaxCores = 9

// DefaultConfig returns the tile parameters used by all experiments.
// The cache geometry follows the paper's description (per-core L1,
// shared L2) with sizes typical of the platform's era.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:             cores,
		L1:                CacheConfig{SizeBytes: 32 << 10, LineBytes: 64, Ways: 4},
		L2:                CacheConfig{SizeBytes: 8 << 20, LineBytes: 64, Ways: 8},
		L2HitCycles:       8,
		MemCycles:         96,
		StreamLineCycles:  8,
		JobOverheadCycles: 600,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > MaxCores {
		return fmt.Errorf("spacecake: %d cores outside 1..%d", c.Cores, MaxCores)
	}
	if err := c.L1.validate("L1"); err != nil {
		return err
	}
	if err := c.L2.validate("L2"); err != nil {
		return err
	}
	if c.L2HitCycles < 0 || c.MemCycles < 0 || c.JobOverheadCycles < 0 || c.StreamLineCycles < 0 {
		return fmt.Errorf("spacecake: negative latency")
	}
	return nil
}

// cache is a set-associative LRU cache tracking line addresses only.
type cache struct {
	lineShift uint
	setMask   uint64
	ways      int
	sets      [][]uint64 // each set: line addresses, MRU first
}

func newCache(cfg CacheConfig) *cache {
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := lines / cfg.Ways
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &cache{
		lineShift: shift,
		setMask:   uint64(sets - 1),
		ways:      cfg.Ways,
		sets:      make([][]uint64, sets),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, cfg.Ways)
	}
	return c
}

// access looks up the line containing addr, updating LRU state and
// allocating on miss. It reports whether the access hit.
func (c *cache) access(lineAddr uint64) bool {
	set := c.sets[lineAddr&c.setMask]
	for i, tag := range set {
		if tag == lineAddr {
			// Move to front (MRU).
			copy(set[1:i+1], set[:i])
			set[0] = lineAddr
			return true
		}
	}
	// Miss: allocate, evicting LRU if full.
	if len(set) < c.ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = lineAddr
	c.sets[lineAddr&c.setMask] = set
	return false
}

// flush empties the cache.
func (c *cache) flush() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
}

// Stats aggregates memory-system counters for a run.
type Stats struct {
	L1Hits         int64 `json:"l1_hits"`
	L1Misses       int64 `json:"l1_misses"`
	L2Hits         int64 `json:"l2_hits"`
	L2Misses       int64 `json:"l2_misses"`
	MemCyclesTotal int64 `json:"mem_cycles"`     // cycles spent in L2/DRAM latency
	StreamedLines  int64 `json:"streamed_lines"` // cache lines moved by streamed transfers
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.L1Hits += other.L1Hits
	s.L1Misses += other.L1Misses
	s.L2Hits += other.L2Hits
	s.L2Misses += other.L2Misses
	s.MemCyclesTotal += other.MemCyclesTotal
	s.StreamedLines += other.StreamedLines
}

// L1MissRate returns the fraction of accesses missing L1.
func (s Stats) L1MissRate() float64 {
	t := s.L1Hits + s.L1Misses
	if t == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(t)
}

// Region is a contiguous simulated address range.
type Region struct {
	Addr  uint64
	Bytes int64
}

// Sub returns the subregion [off, off+bytes) of r. It panics when the
// subregion does not fit: callers derive subregions from geometry they
// themselves allocated.
func (r Region) Sub(off, bytes int64) Region {
	if off < 0 || bytes < 0 || off+bytes > r.Bytes {
		panic(fmt.Sprintf("spacecake: subregion [%d,+%d) outside region of %d bytes", off, bytes, r.Bytes))
	}
	return Region{Addr: r.Addr + uint64(off), Bytes: bytes}
}

// Access pairs a region with its direction, as recorded by running
// components for the cache model.
type Access struct {
	Region Region
	Write  bool
}

// Tile is the simulated SpaceCAKE tile: per-core L1 caches and a shared
// L2. It is not safe for concurrent use; the discrete-event scheduler
// that owns it is single-threaded.
type Tile struct {
	cfg   Config
	l1    []*cache
	l2    *cache
	stats Stats
}

// NewTile builds a tile from cfg. It panics on an invalid
// configuration, which is always a programming error in this
// repository (configs are built by DefaultConfig and tests).
func NewTile(cfg Config) *Tile {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Tile{cfg: cfg, l2: newCache(cfg.L2)}
	for i := 0; i < cfg.Cores; i++ {
		t.l1 = append(t.l1, newCache(cfg.L1))
	}
	return t
}

// Config returns the tile configuration.
func (t *Tile) Config() Config { return t.cfg }

// Stats returns the accumulated memory-system counters.
func (t *Tile) Stats() Stats { return t.stats }

// ResetStats clears the counters without touching cache contents.
func (t *Tile) ResetStats() { t.stats = Stats{} }

// Flush empties all caches (used between independent experiment runs).
func (t *Tile) Flush() {
	for _, c := range t.l1 {
		c.flush()
	}
	t.l2.flush()
}

// AccessRegion simulates core accessing every cache line of region r
// and returns the memory cycles incurred. Writes are modelled as
// write-allocate with the same fill latency as reads (write-back
// traffic is not modelled; it is proportional to the same line counts
// and would only rescale, not reshape, the results).
func (t *Tile) AccessRegion(core int, r Region, write bool) int64 {
	if r.Bytes <= 0 {
		return 0
	}
	if core < 0 || core >= len(t.l1) {
		panic(fmt.Sprintf("spacecake: core %d out of range", core))
	}
	l1 := t.l1[core]
	shift := l1.lineShift
	first := r.Addr >> shift
	last := (r.Addr + uint64(r.Bytes) - 1) >> shift
	var cycles int64
	for line := first; line <= last; line++ {
		if l1.access(line) {
			t.stats.L1Hits++
			continue
		}
		t.stats.L1Misses++
		if t.l2.access(line) {
			t.stats.L2Hits++
			cycles += int64(t.cfg.L2HitCycles)
		} else {
			t.stats.L2Misses++
			cycles += int64(t.cfg.MemCycles)
		}
	}
	t.stats.MemCyclesTotal += cycles
	return cycles
}

// AccessStreamed charges core for a streamed (DMA/burst) transfer of
// region r: bandwidth cost only, no cache-state change. Bulk file input
// and output use it — such traffic is sequential and prefetched on a
// real media platform, so it neither pays per-line DRAM latency nor
// displaces the working set.
func (t *Tile) AccessStreamed(core int, r Region) int64 {
	if r.Bytes <= 0 {
		return 0
	}
	if core < 0 || core >= len(t.l1) {
		panic(fmt.Sprintf("spacecake: core %d out of range", core))
	}
	lines := (int64(r.Addr%64) + r.Bytes + 63) / 64
	cycles := lines * int64(t.cfg.StreamLineCycles)
	t.stats.StreamedLines += lines
	return cycles
}

// AddressSpace hands out non-overlapping simulated address ranges for
// stream buffers and other modelled data structures.
type AddressSpace struct {
	next uint64
}

// NewAddressSpace returns an allocator starting above the zero page so
// that a zero Region is never a valid allocation.
func NewAddressSpace() *AddressSpace { return &AddressSpace{next: 1 << 12} }

// Alloc reserves bytes of address space aligned to a cache line and
// returns its region.
func (a *AddressSpace) Alloc(bytes int64) Region {
	if bytes < 0 {
		panic("spacecake: negative allocation")
	}
	const align = 64
	a.next = (a.next + align - 1) &^ (align - 1)
	r := Region{Addr: a.next, Bytes: bytes}
	a.next += uint64(bytes)
	return r
}
