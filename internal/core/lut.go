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
type LUT struct {
	pc      PlanConfig
	entries map[lutKey][]Option
	solver  *periodSolver // builds entries; owns the period scratch

	// profiles interns ProfileKey's strings by (energy, peak) bucket, so
	// a known profile costs no allocation.
	profiles map[[2]int]string
	// transfer[(from*H+to)*B+b] is TransferBucket(from, b, to)'s bucket.
	transfer []int
	plan     planScratch // PlanHorizon's tables, reused across calls

	// Builds counts period-optimizer invocations (cache misses); Lookups
	// counts queries. Their ratio shows how much the LUT compresses.
	Builds, Lookups int

	// Pre-resolved instruments (nil when pc.Observer is nil).
	mHits    *obs.Counter
	mMisses  *obs.Counter
	mEntries *obs.Gauge
	mSolve   *obs.Timer
	mExpand  *obs.Counter
}

type lutKey struct {
	profile string
	capIdx  int
	vBucket int
}

// NewLUT returns an empty table over the configuration.
func NewLUT(pc PlanConfig) *LUT {
	if err := pc.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	reg := pc.Observer
	l := &LUT{
		pc:       pc,
		entries:  make(map[lutKey][]Option),
		solver:   newPeriodSolver(pc).withTraces(),
		profiles: make(map[[2]int]string),
		mHits:    reg.Counter("core_lut_hits_total"),
		mMisses:  reg.Counter("core_lut_misses_total"),
		mEntries: reg.Gauge("core_lut_entries"),
		mSolve:   reg.Timer("core_dp_solve_seconds"),
		mExpand:  reg.Counter("core_dp_expansions_total"),
	}
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
func (l *LUT) ProfileKey(powers []float64) string {
	dt := l.pc.Base.SlotSeconds
	total, peak := 0.0, 0.0
	for _, p := range powers {
		total += p * dt
		if p > peak {
			peak = p
		}
	}
	if total <= 1e-9 {
		return "dark"
	}
	eb := int(math.Round(4 * math.Log2(1+total)))
	pb := int(math.Round(2 * math.Log2(1+peak*1000)))
	key, ok := l.profiles[[2]int{eb, pb}]
	if !ok {
		key = fmt.Sprintf("e%d|p%d", eb, pb)
		l.profiles[[2]int{eb, pb}] = key
	}
	return key
}

// Buckets returns the number of voltage buckets.
func (l *LUT) Buckets() int { return l.pc.VBuckets }

// BucketOf quantizes a voltage of capacitor capIdx into its usable-energy
// bucket in [0, VBuckets). Buckets are square-root spaced: fine at low
// stored energy, where a night period's few-joule spend must stay visible
// to the DP, and coarse near full charge, where per-period deltas are
// relatively small. This sits on the DP's hot path and is allocation-free.
func (l *LUT) BucketOf(capIdx int, v float64) int {
	p := l.pc.Params
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
// profile), building the entry on first use. The powers of the first period
// seen with a given profile key become the representative profile.
func (l *LUT) Options(capIdx, vBucket int, powers []float64) []Option {
	return l.OptionsByKey(l.ProfileKey(powers), capIdx, vBucket, powers)
}

// OptionsByKey is Options with the profile key precomputed — the DP calls
// this once per (period, capacitor, bucket) and hoists the key out of the
// inner loops.
func (l *LUT) OptionsByKey(profile string, capIdx, vBucket int, powers []float64) []Option {
	l.Lookups++
	key := lutKey{profile: profile, capIdx: capIdx, vBucket: vBucket}
	if opts, ok := l.entries[key]; ok {
		l.mHits.Inc()
		return opts
	}
	l.Builds++
	l.mMisses.Inc()
	opts := l.solver.frontier(l.pc.Capacitances[capIdx], l.BucketV(capIdx, vBucket), powers)
	l.entries[key] = opts
	l.mEntries.Set(float64(len(l.entries)))
	return opts
}

// Size returns the number of materialized entries.
func (l *LUT) Size() int { return len(l.entries) }

// LUTEntry is one memoized entry in serialized form, for checkpointing.
type LUTEntry struct {
	Profile string   `json:"profile"`
	CapIdx  int      `json:"cap_idx"`
	VBucket int      `json:"v_bucket"`
	Options []Option `json:"options"`
}

// SnapshotEntries returns every memoized entry, sorted by key so equal
// tables serialize identically. The memo is genuine cross-period state:
// the first profile seen with a given key becomes the bucket's
// representative (ProfileKey), so a table rebuilt from a different query
// order holds different options. A resumed run must inherit the table,
// not regrow it.
func (l *LUT) SnapshotEntries() []LUTEntry {
	out := make([]LUTEntry, 0, len(l.entries))
	for k, opts := range l.entries {
		out = append(out, LUTEntry{Profile: k.profile, CapIdx: k.capIdx, VBucket: k.vBucket, Options: opts})
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

// RestoreEntries replaces the memo with the given entries.
func (l *LUT) RestoreEntries(entries []LUTEntry) {
	l.entries = make(map[lutKey][]Option, len(entries))
	for _, e := range entries {
		l.entries[lutKey{profile: e.Profile, capIdx: e.CapIdx, vBucket: e.VBucket}] = e.Options
	}
	l.mEntries.Set(float64(len(l.entries)))
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
