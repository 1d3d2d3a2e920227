package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// The LUT memo must survive a snapshot/restore round trip exactly: a
// restored table answers every previously-built key with the same options
// as the original, with no rebuild.
func TestLUTSnapshotRestoreRoundTrip(t *testing.T) {
	tb := solar.DefaultTimeBase(2)
	g := task.WAM()
	pc := DefaultPlanConfig(g, tb, []float64{5, 40})
	src := NewLUT(pc)

	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 3})
	for p := 0; p < tb.PeriodsPerDay; p += 4 {
		powers := make([]float64, tb.SlotsPerPeriod)
		for s := range powers {
			powers[s] = tr.At(0, p, s)
		}
		for capIdx := range pc.Capacitances {
			src.Options(capIdx, 0, powers)
			src.Options(capIdx, pc.VBuckets-1, powers)
		}
	}
	if src.Size() == 0 {
		t.Fatal("no LUT entries built")
	}

	entries := src.SnapshotEntries()
	dst := NewLUT(pc)
	dst.RestoreEntries(entries)
	if dst.Size() != src.Size() {
		t.Fatalf("restored %d entries, want %d", dst.Size(), src.Size())
	}
	if !reflect.DeepEqual(dst.SnapshotEntries(), entries) {
		t.Fatal("restored table serializes differently")
	}

	// Re-querying a restored key must hit the memo, not rebuild: Builds
	// stays zero on the restored table.
	for _, e := range entries {
		// The representative powers are not part of the key lookup; any
		// powers with the same profile key hit the entry. Query with nil
		// via OptionsByKey to prove no rebuild happens.
		opts := dst.OptionsByKey(e.Profile, e.CapIdx, e.VBucket, nil)
		if !reflect.DeepEqual(opts, e.Options) {
			t.Fatalf("restored entry %v answers different options", e)
		}
	}
	if dst.Builds != 0 {
		t.Fatalf("restored table rebuilt %d entries", dst.Builds)
	}
}

// Checkpointed and cached LUT entries are input: one whose capacitor or
// voltage bucket lies outside the table must be refused with an error, not
// index into a neighbouring entry or panic.
func TestRestoreRejectsOutOfRangeLUTEntries(t *testing.T) {
	tb := solar.DefaultTimeBase(1)
	pc := DefaultPlanConfig(task.WAM(), tb, []float64{5, 40})
	tr := solar.MustGenerate(solar.GenConfig{Base: tb, Seed: 3})
	opts := []Option{{Misses: 0, Te: []bool{true}, FinalV: 2}}
	for name, e := range map[string]LUTEntry{
		"cap_idx = H":    {Profile: "dark", CapIdx: len(pc.Capacitances), VBucket: 0, Options: opts},
		"cap_idx < 0":    {Profile: "dark", CapIdx: -1, VBucket: 0, Options: opts},
		"v_bucket = -1":  {Profile: "dark", CapIdx: 0, VBucket: -1, Options: opts},
		"v_bucket = B":   {Profile: "dark", CapIdx: 1, VBucket: pc.VBuckets, Options: opts},
		"empty frontier": {Profile: "dark", CapIdx: 0, VBucket: 0},
	} {
		blob, err := json.Marshal(horizonState{LUT: []LUTEntry{e}})
		if err != nil {
			t.Fatal(err)
		}
		h, err := NewClairvoyant(pc, tr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.RestoreState(blob); err == nil {
			t.Errorf("%s: horizon restore accepted %+v", name, e)
		}
		plan := PlanResult{Decisions: make([]Decision, tb.TotalPeriods())}
		if _, err := NewOptimalFromPlan(pc, tr, plan, []LUTEntry{e}); err == nil {
			t.Errorf("%s: NewOptimalFromPlan accepted %+v", name, e)
		}
	}
}
