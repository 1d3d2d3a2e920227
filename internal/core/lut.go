package core

import (
	"fmt"
	"math"
	"sort"

	"solarsched/internal/obs"
	"solarsched/internal/supercap"
)

// LUT is the lookup table of eq. (13): it maps a quantized (solar profile,
// capacitor, initial voltage) key to the Pareto options of the period
// optimizer, and — per the paper — approximates unseen inputs by the
// closest existing entry (here: by sharing the quantization bucket).
//
// The table is dense, the tabular form of a value iteration over quantized
// stored energy: profiles are interned as small ids, and entry (profile,
// capacitor, bucket) sits at index (profile·H+capacitor)·B+bucket, so each
// profile adds a block of H·B entries. PlanHorizon's DP, which looks up
// every entry of a period's profile in the same row, builds a block's
// missing entries together (buildBlock); Options builds one entry.
type LUT struct {
	pc      PlanConfig
	entries []lutEntry
	size    int           // looked-up or restored entries
	nexts   []int         // storage the entries' next slices are carved from
	solver  *periodSolver // builds entries; owns the period scratch

	// buildBlock's scratch: the start state and table index of each
	// entry it builds, and the frontiers the solver returns.
	blockStarts []laneStart
	blockIdx    []int
	blockOpts   [][]Option

	// Profile interning. byBuckets maps ProfileKey's (energy, peak)
	// buckets to an id, so a known profile costs no allocation; byName
	// serves string keys (OptionsByKey, restores) and names[id] is the
	// key itself. dark is the id of "dark".
	byBuckets map[[2]int]int
	byName    map[string]int
	names     []string
	dark      int

	// transfer[(from*H+to)*B+b] is TransferBucket(from, b, to)'s bucket.
	transfer []int
	plan     planScratch // PlanHorizon's tables, reused across calls

	// Builds counts entries at their first lookup (cache misses), whether
	// that lookup built the entry or an earlier block build did; Lookups
	// counts queries. Their ratio shows how much the LUT compresses.
	Builds, Lookups int

	// Pre-resolved instruments (nil when pc.Observer is nil).
	mHits    *obs.Counter
	mMisses  *obs.Counter
	mEntries *obs.Gauge
	mSolve   *obs.Timer
	mExpand  *obs.Counter
}

// lutEntry is one slot of the table: once built, the Pareto options and,
// per option, the voltage bucket it ends the period in
// (next[i] = BucketOf(capacitor, opts[i].FinalV)), which is all the DP
// needs to price an option. An entry a block build made is seen only from
// its first lookup: until then it counts in neither Builds, the hit and
// miss counters, Size nor a snapshot, so the table reads as if each entry
// were built at its first lookup.
type lutEntry struct {
	opts  []Option
	next  []int
	built bool
	seen  bool // looked up or restored
}

// nextChunk is how many next-bucket slots the table allocates at a time.
const nextChunk = 1024

// NewLUT returns an empty table over the configuration.
func NewLUT(pc PlanConfig) *LUT {
	if err := pc.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	reg := pc.Observer
	l := &LUT{
		pc:        pc,
		solver:    newPeriodSolver(pc),
		byBuckets: make(map[[2]int]int),
		byName:    make(map[string]int),
		mHits:     reg.Counter("core_lut_hits_total"),
		mMisses:   reg.Counter("core_lut_misses_total"),
		mEntries:  reg.Gauge("core_lut_entries"),
		mSolve:    reg.Timer("core_dp_solve_seconds"),
		mExpand:   reg.Counter("core_dp_expansions_total"),
	}
	l.dark = l.intern("dark")
	H, B := len(pc.Capacitances), pc.VBuckets
	l.transfer = make([]int, H*H*B)
	for from := 0; from < H; from++ {
		for to := 0; to < H; to++ {
			for b := 0; b < B; b++ {
				bTo := b
				if to != from {
					bTo, _ = l.TransferBucket(from, b, to)
				}
				l.transfer[(from*H+to)*B+b] = bTo
			}
		}
	}
	return l
}

// transferTo is TransferBucket's destination bucket from the table; a
// capacitor "switched" to itself keeps its bucket.
func (l *LUT) transferTo(from, b, to int) int {
	H, B := len(l.pc.Capacitances), l.pc.VBuckets
	return l.transfer[(from*H+to)*B+b]
}

// Config returns the table's plan configuration.
func (l *LUT) Config() PlanConfig { return l.pc }

// SetObserver re-resolves the table's instruments against reg. A nil reg
// is ignored so an engine without an observer does not disable a sink
// chosen at construction time.
func (l *LUT) SetObserver(reg *obs.Registry) {
	if reg == nil {
		return
	}
	l.mHits = reg.Counter("core_lut_hits_total")
	l.mMisses = reg.Counter("core_lut_misses_total")
	l.mEntries = reg.Gauge("core_lut_entries")
	l.mSolve = reg.Timer("core_dp_solve_seconds")
	l.mExpand = reg.Counter("core_dp_expansions_total")
	l.solver.setObserver(reg)
}

// ProfileKey quantizes a period's slot powers into the LUT key: a
// logarithmic total-energy bucket plus a coarse peak bucket. Periods with
// the same key share LUT entries — the paper's "closest input in the LUT"
// approximation. The quantization is deliberately coarse: the receding-
// horizon planner queries thousands of noisy forecast profiles, and entry
// reuse is what keeps the LUT (and the paper's M term) small; the exact
// first-period re-optimization in PlanHorizon absorbs the residual error
// where it matters.
func (l *LUT) ProfileKey(powers []float64) string { return l.names[l.profileID(powers)] }

// profileID is ProfileKey's interned id.
func (l *LUT) profileID(powers []float64) int {
	dt := l.pc.Base.SlotSeconds
	total, peak := 0.0, 0.0
	for _, p := range powers {
		total += p * dt
		if p > peak {
			peak = p
		}
	}
	if total <= 1e-9 {
		return l.dark
	}
	eb := int(math.Round(4 * math.Log2(1+total)))
	pb := int(math.Round(2 * math.Log2(1+peak*1000)))
	id, ok := l.byBuckets[[2]int{eb, pb}]
	if !ok {
		id = l.intern(fmt.Sprintf("e%d|p%d", eb, pb))
		l.byBuckets[[2]int{eb, pb}] = id
	}
	return id
}

// intern returns the id of a profile key, adding the key — and its block
// of H·B empty entries — on first sight.
func (l *LUT) intern(name string) int {
	if id, ok := l.byName[name]; ok {
		return id
	}
	id := len(l.names)
	l.names = append(l.names, name)
	l.byName[name] = id
	l.entries = append(l.entries, make([]lutEntry, len(l.pc.Capacitances)*l.pc.VBuckets)...)
	return id
}

// Buckets returns the number of voltage buckets.
func (l *LUT) Buckets() int { return l.pc.VBuckets }

// BucketOf quantizes a voltage of capacitor capIdx into its usable-energy
// bucket in [0, VBuckets). Buckets are square-root spaced: fine at low
// stored energy, where a night period's few-joule spend must stay visible
// to the DP, and coarse near full charge, where per-period deltas are
// relatively small. This sits on the DP's hot path and is allocation-free.
func (l *LUT) BucketOf(capIdx int, v float64) int {
	p := &l.pc.Params
	if v <= p.VLow {
		return 0
	}
	if v > p.VHigh {
		v = p.VHigh
	}
	frac := (v*v - p.VLow*p.VLow) / (p.VHigh*p.VHigh - p.VLow*p.VLow)
	b := int(math.Sqrt(frac) * float64(l.pc.VBuckets))
	if b >= l.pc.VBuckets {
		b = l.pc.VBuckets - 1
	}
	return b
}

// BucketV returns the representative voltage of a bucket (its center under
// the square-root spacing).
func (l *LUT) BucketV(capIdx, bucket int) float64 {
	p := l.pc.Params
	cf := l.pc.Capacitances[capIdx]
	capacity := 0.5 * cf * (p.VHigh*p.VHigh - p.VLow*p.VLow)
	r := (float64(bucket) + 0.5) / float64(l.pc.VBuckets)
	usable := r * r * capacity
	return math.Sqrt(p.VLow*p.VLow + 2*usable/cf)
}

// Options returns the Pareto options for (capacitor, voltage bucket, solar
// profile), building the entry alone on first use. The powers of the
// first period seen with a given profile key become the representative
// profile.
func (l *LUT) Options(capIdx, vBucket int, powers []float64) []Option {
	l.checkIndex(capIdx, vBucket)
	return l.entry(l.profileID(powers), capIdx, vBucket, powers, false).opts
}

// OptionsByKey is Options with the profile key precomputed.
func (l *LUT) OptionsByKey(profile string, capIdx, vBucket int, powers []float64) []Option {
	l.checkIndex(capIdx, vBucket)
	return l.entry(l.intern(profile), capIdx, vBucket, powers, false).opts
}

func (l *LUT) checkIndex(capIdx, vBucket int) {
	if err := l.indexErr(capIdx, vBucket); err != nil {
		panic("core: LUT " + err.Error())
	}
}

// indexErr reports a capacitor or voltage bucket outside the table: in a
// dense table it would alias another entry.
func (l *LUT) indexErr(capIdx, vBucket int) error {
	if H := len(l.pc.Capacitances); capIdx < 0 || capIdx >= H {
		return fmt.Errorf("capacitor %d outside [0,%d)", capIdx, H)
	}
	if vBucket < 0 || vBucket >= l.pc.VBuckets {
		return fmt.Errorf("voltage bucket %d outside [0,%d)", vBucket, l.pc.VBuckets)
	}
	return nil
}

// entry returns the entry of (profile id, capacitor, bucket), building it
// from powers on first use: with block, together with every other unbuilt
// entry of the profile's block. The entry counts as a miss (and a build)
// at its first lookup and as a hit after. The pointer is valid until the
// next intern.
func (l *LUT) entry(id, capIdx, vBucket int, powers []float64, block bool) *lutEntry {
	l.Lookups++
	e := &l.entries[(id*len(l.pc.Capacitances)+capIdx)*l.pc.VBuckets+vBucket]
	if e.seen {
		l.mHits.Inc()
		return e
	}
	if !e.built {
		if block {
			l.buildBlock(id, powers)
		} else {
			l.fill(e, capIdx, l.solver.frontier(l.pc.Capacitances[capIdx], l.BucketV(capIdx, vBucket), powers))
		}
	}
	e.seen = true
	l.size++
	l.Builds++
	l.mMisses.Inc()
	l.mEntries.Set(float64(l.size))
	return e
}

// buildBlock builds every unbuilt entry of profile id's block from powers:
// one solver run per closed subset, with one capacitor lane per entry.
// Each entry gets the frontier a build of it alone would give, bit for
// bit: the same start state, powers and subsets.
func (l *LUT) buildBlock(id int, powers []float64) {
	H, B := len(l.pc.Capacitances), l.pc.VBuckets
	base := id * H * B
	starts, idx := l.blockStarts[:0], l.blockIdx[:0]
	for c, capC := range l.pc.Capacitances {
		for b := 0; b < B; b++ {
			if !l.entries[base+c*B+b].built {
				starts = append(starts, laneStart{capC, l.BucketV(c, b)})
				idx = append(idx, c*B+b)
			}
		}
	}
	l.blockStarts, l.blockIdx = starts, idx
	if cap(l.blockOpts) < len(starts) {
		l.blockOpts = make([][]Option, len(starts))
	}
	opts := l.blockOpts[:len(starts)]
	l.solver.frontiers(starts, powers, opts)
	for k, i := range idx {
		l.fill(&l.entries[base+i], i/B, opts[k])
	}
}

// fill makes e the built entry of opts on capacitor capIdx.
func (l *LUT) fill(e *lutEntry, capIdx int, opts []Option) {
	if cap(l.nexts)-len(l.nexts) < len(opts) {
		l.nexts = make([]int, 0, max(nextChunk, len(opts)))
	}
	n := len(l.nexts)
	l.nexts = l.nexts[:n+len(opts)]
	next := l.nexts[n : n+len(opts) : n+len(opts)]
	for i := range opts {
		next[i] = l.BucketOf(capIdx, opts[i].FinalV)
	}
	*e = lutEntry{opts: opts, next: next, built: true}
}

// Size returns the number of entries looked up or restored.
func (l *LUT) Size() int { return l.size }

// LUTEntry is one memoized entry in serialized form, for checkpointing.
type LUTEntry struct {
	Profile string   `json:"profile"`
	CapIdx  int      `json:"cap_idx"`
	VBucket int      `json:"v_bucket"`
	Options []Option `json:"options"`
}

// SnapshotEntries returns every entry looked up or restored, sorted by
// key so equal tables serialize identically. The memo is genuine
// cross-period state: the first profile seen with a given key becomes the
// bucket's representative (ProfileKey), so a table rebuilt from a
// different query order holds different options. A resumed run must
// inherit the table, not regrow it.
func (l *LUT) SnapshotEntries() []LUTEntry {
	H, B := len(l.pc.Capacitances), l.pc.VBuckets
	out := make([]LUTEntry, 0, l.size)
	for i := range l.entries {
		if e := &l.entries[i]; e.seen {
			out = append(out, LUTEntry{Profile: l.names[i/(H*B)], CapIdx: i / B % H, VBucket: i % B, Options: e.opts})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Profile != out[j].Profile {
			return out[i].Profile < out[j].Profile
		}
		if out[i].CapIdx != out[j].CapIdx {
			return out[i].CapIdx < out[j].CapIdx
		}
		return out[i].VBucket < out[j].VBucket
	})
	return out
}

// RestoreEntries replaces the memo with the given entries. The entries come
// from checkpoints and cached plan artifacts, so each one is checked
// first: a capacitor or bucket index outside the table, or an entry with
// no options (a built frontier always holds at least the empty task set),
// is an error, and the table is then left as it was.
func (l *LUT) RestoreEntries(entries []LUTEntry) error {
	for i, e := range entries {
		if err := l.indexErr(e.CapIdx, e.VBucket); err != nil {
			return fmt.Errorf("core: LUT entry %d: %w", i, err)
		}
		if len(e.Options) == 0 {
			return fmt.Errorf("core: LUT entry %d has no options", i)
		}
	}
	clear(l.entries)
	l.size = 0
	H, B := len(l.pc.Capacitances), l.pc.VBuckets
	for _, e := range entries {
		id := l.intern(e.Profile)
		le := &l.entries[(id*H+e.CapIdx)*B+e.VBucket]
		if !le.seen {
			l.size++
		}
		l.fill(le, e.CapIdx, e.Options)
		le.seen = true
	}
	l.mEntries.Set(float64(l.size))
	return nil
}

// TransferBucket estimates the DP transition of migrating the usable energy
// of capacitor `from` at bucket bFrom into capacitor `to` (starting empty):
// it returns the destination bucket and the energy lost. This models the
// day-boundary capacitor switch of the long-term optimization.
func (l *LUT) TransferBucket(from, bFrom, to int) (bTo int, lost float64) {
	p := l.pc.Params
	src := supercap.Capacitor{C: l.pc.Capacitances[from], V: l.BucketV(from, bFrom), P: p}
	dst := supercap.Capacitor{C: l.pc.Capacitances[to], V: p.VLow, P: p}
	before := src.UsableEnergy()
	moved := src.Discharge(src.Deliverable())
	stored := dst.Charge(moved)
	return l.BucketOf(to, dst.V), before - stored
}
