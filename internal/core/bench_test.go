package core

import (
	"testing"

	"solarsched/internal/sim"
	"solarsched/internal/sizing"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// teacherFixture is one teacher configuration: a generated history of
// days days, the graph and its h-capacitor bank.
func teacherFixture(tb testing.TB, g *task.Graph, h, days int, seed uint64, dayOfYear int) (PlanConfig, *solar.Trace) {
	tb.Helper()
	tr := solar.MustGenerate(solar.GenConfig{Base: solar.DefaultTimeBase(days), Seed: seed, DayOfYearStart: dayOfYear})
	bank := sizing.SizeBank(tr, g, h, supercap.DefaultParams(), sim.DefaultDirectEff)
	return DefaultPlanConfig(g, tr.Base, bank), tr
}

// BenchmarkLUTProfileBuild is one solar profile's block of LUT entries
// (eq. (13)) as PlanHorizon's DP builds it: every (capacitor, bucket)
// entry of a morning profile, for wam and random1 on an h = 2 bank.
func BenchmarkLUTProfileBuild(b *testing.B) {
	for _, c := range []struct {
		g         *task.Graph
		seed      uint64
		dayOfYear int
	}{{task.WAM(), 9001, 100}, {task.RandomCase(1), 9002, 190}} {
		b.Run(c.g.Name, func(b *testing.B) {
			pc, tr := teacherFixture(b, c.g, 2, 2, c.seed, c.dayOfYear)
			l := NewLUT(pc)
			powers := tr.PeriodPowers(0, 17)
			id := l.profileID(powers)
			n := len(pc.Capacitances) * pc.VBuckets
			block := l.entries[id*n : (id+1)*n]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Forget the block, and the next-bucket storage only
				// it used, so every iteration builds all of it.
				clear(block)
				l.nexts = l.nexts[:0]
				l.buildBlock(id, powers)
			}
		})
	}
}

// BenchmarkCollectSamples is the §4.2 DP teacher over a 2-day ecg
// history on an h = 2 bank: the receding-horizon clairvoyant run that
// labels the DBN's training samples, LUT builds included.
func BenchmarkCollectSamples(b *testing.B) {
	pc, tr := teacherFixture(b, task.ECG(), 2, 2, 1806979001, 38)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CollectSamples(pc, tr); err != nil {
			b.Fatal(err)
		}
	}
}
